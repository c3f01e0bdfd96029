package main

import (
	"fmt"
	"time"
)

// The benchmark shares a few cores of a host whose speed drifts by a
// fifth or more over minutes, for the program's code and for any other
// code alike.  Each run therefore also times a fixed reference kernel,
// between passes and between service rounds (never while the program
// runs), and reports its wall-clock metrics scaled to the speed at
// which the kernel takes calNominal:
//
//	reported = measured × calNominal / median(kernel times in the run)
//
// The kernel is integer word arithmetic, the kind of work the
// bit-parallel simulation layers do; over minutes its time followed
// the pipelines' pass times closely on the host the benchmark was
// written on, while kernels built on memory or hash maps followed them
// less well.  It uses no program code, so a change to the program
// moves the reported times exactly as it moves the measured ones; only
// the host's speed is divided out.  The measured values and the factor
// are printed beside the result.
const (
	calIters   = 60_000_000
	calNominal = 0.1 // seconds: the kernel's time on a 2-vCPU Intel Xeon host at rest
)

var calSink uint64

// calibrate runs the reference kernel once, on one goroutine, and
// returns its wall time in seconds.
func calibrate() float64 {
	start := time.Now()
	x, y := uint64(1), uint64(2)
	for i := 0; i < calIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		y ^= x >> 17
		y = y<<13 | y>>51
	}
	calSink += y
	return time.Since(start).Seconds()
}

// scaleTimes rescales every wall-clock metric of m to the nominal host
// speed, given the run's kernel times, and returns a line naming the
// factor and the measured values.
func scaleTimes(m map[string]metric, cal []float64) string {
	k := calNominal / median(cal)
	note := fmt.Sprintf("# host speed: reference kernel median %.4fs over %d samples, times scaled by %.4f; measured:", median(cal), len(cal), k)
	for _, n := range endToEnd {
		v, ok := m[n]
		if !ok {
			continue
		}
		switch v.Unit {
		case "s", "ms":
			note += fmt.Sprintf(" %s=%.6g", n, v.Value)
			v.Value *= k
		case "1/s":
			note += fmt.Sprintf(" %s=%.6g", n, v.Value)
			v.Value /= k
		}
		m[n] = v
	}
	return note
}
