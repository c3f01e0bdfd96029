package satpg

import "testing"

// suiteScalarStride samples the scalar-oracle check on the Table-1
// suite.  Its circuits are small, so one fault in four is replayed.
const suiteScalarStride = 4

// TestEventEngineParityOnSuite pins the event-driven cone-limited
// engine on the Table-1 benchmarks: for both fault models, FaultSimBatch
// must report identical per-fault verdicts at every lane width, and a
// sample of those verdicts must match a full replay on the scalar
// ternary machine.
func TestEventEngineParityOnSuite(t *testing.T) {
	suite := SpeedIndependentSuite()
	if testing.Short() {
		suite = suite[:3]
	}
	for _, bm := range suite {
		_, res, err := GenerateForCircuit(bm.Circuit, InputStuckAt, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		for _, model := range []FaultModel{OutputStuckAt, InputStuckAt} {
			crossWidthCompare(t, bm.Circuit, model, res.Tests, Options{}, []int{64, 128, 256}, suiteScalarStride)
		}
	}
}
