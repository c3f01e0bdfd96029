package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	satpg "repro"
	"repro/internal/service"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload, seed: 3, trace: trace, root: "..", out: t.TempDir(),
		runID: workload, small: true,
	}
}

// benchmarkSpec reads the metric names and units BENCHMARK.json
// declares.
func benchmarkSpec(t *testing.T) (e2e, layer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	e2e, layer := benchmarkSpec(t)
	for _, w := range allWorkloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace)
			o, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, trace, o.failed, o.attempted, o.errs)
			}
			want, got := e2e, o.e2e
			if trace {
				want, got = layer, o.layer
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(got), len(want))
			}
			for name, unit := range want {
				m, ok := got[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", w, trace, name, m.Unit, unit)
				}
			}
			for name, m := range got {
				if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("%s: bad metric name or unit %q %q", w, name, m.Unit)
				}
			}
			var out bytes.Buffer
			printResult(&out, cfg, o, "test")
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || !r.Correct {
				t.Errorf("%s: last line %q is not a correct result (%v)", w, lines[len(lines)-1], err)
			}
		}
	}
}

func TestCorruptedResultFailsValidation(t *testing.T) {
	for _, w := range []string{"table1-cssg", "iscas-direct"} {
		cfg := tinyConfig(t, w, false)
		cfg.tamperResult = func(r *satpg.Result) {
			if len(r.Tests) > 0 {
				r.Tests[0].Expected[0] ^= 1
			}
		}
		o, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed == 0 {
			t.Errorf("%s: a corrupted expected response passed every check", w)
		}
	}
}

func TestBadResponsesCount(t *testing.T) {
	cfg := tinyConfig(t, "service-audit", false)
	var n atomic.Int64
	cfg.wrapHandler = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/coverage" {
				h.ServeHTTP(w, r)
				return
			}
			switch n.Add(1) {
			case 3:
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			case 5:
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				var resp service.CoverageResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.PerFault) == 0 {
					t.Errorf("injecting a bad verdict: %v", err)
					return
				}
				resp.PerFault[0].Detected = !resp.PerFault[0].Detected
				json.NewEncoder(w).Encode(&resp)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	o, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed < 2 {
		t.Errorf("an error status and a wrong verdict gave %d failures (%v)", o.failed, o.errs)
	}
}
