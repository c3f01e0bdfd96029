package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	satpg "repro"
	"repro/internal/atpg"
	"repro/internal/logic"
	"repro/internal/resultstore"
	"repro/internal/service"
	"repro/internal/sim"
)

// The service-audit load: a closed loop of auditClients clients, each
// sending its next request when the previous one is answered.  Of
// every auditRound requests, 14 are fresh /v1/coverage queries (a new
// seeded set of auditTests random tests × auditCycles vectors, both
// fault universes), 4 repeat an earlier coverage query exactly
// (answered from the result store) and 2 are /v1/compact on a fresh
// set of valid programs.  pipeline_s is the median round's wall time.
const (
	auditClients  = 2
	auditTests    = 128
	auditCycles   = 12
	auditPrograms = 32
	auditRound    = 20
	auditRecheck  = 4 // fresh queries re-measured in-process after the window
	// auditRSSAt is the request count at which peak_rss_mb is read: the
	// result store grows with every fresh answer, so the peak is taken
	// after a fixed amount of work rather than at the end of the window.
	auditRSSAt = 5 * auditRound
)

type reqKind uint8

const (
	kindFresh reqKind = iota
	kindRepeat
	kindCompact
)

// plannedReq is one request of the seeded plan.  Bodies are built
// from seed just before sending, so the plan can be long and cheap.
type plannedReq struct {
	kind     reqKind
	repeatOf int // kindRepeat: index of the repeated fresh request
	seed     int64
}

// sample is what the client saw for one request.
type sample struct {
	done       bool
	start, end time.Time
	cov        *service.CoverageResponse
	cmp        *service.CompactResponse
	err        error
}

func (s *sample) latencyMS() float64 { return float64(s.end.Sub(s.start).Nanoseconds()) / 1e6 }

// handlerNS is the server-side time the response reports; store
// replays carry the original query's time and are left out.
func (s *sample) handlerNS() (int64, bool) {
	switch {
	case s.cov != nil && !s.cov.FromStore:
		return s.cov.ElapsedNS, true
	case s.cmp != nil && !s.cmp.FromStore:
		return s.cmp.ElapsedNS, true
	}
	return 0, false
}

// auditServer is one set-up of the service: an in-process satpgd with
// a memory-only result store behind a loopback listener, with the
// circuit interned.
type auditServer struct {
	store *resultstore.Store
	svc   *service.Server
	http  *http.Server
	done  chan error
	url   string
	id    string
}

func startServer(cfg *config, text string) (*auditServer, error) {
	store, err := resultstore.Open("", 0)
	if err != nil {
		return nil, err
	}
	s := &auditServer{store: store, svc: service.New(service.Config{Store: store}), done: make(chan error, 1)}
	var h http.Handler = s.svc
	if cfg.wrapHandler != nil {
		h = cfg.wrapHandler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		store.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: h}
	go func() { s.done <- s.http.Serve(ln) }()
	resp, err := http.Post(s.url+"/v1/circuits", "text/plain", strings.NewReader(text))
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("interning the circuit: %w", err)
	}
	defer resp.Body.Close()
	var info service.CircuitInfo
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("interning the circuit: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		s.stop()
		return nil, fmt.Errorf("interning the circuit: %w", err)
	}
	s.id = info.ID
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *auditServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.done
	s.svc.Close()
	s.store.Close()
}

// planRequests draws the seeded request plan.  Every round holds
// exactly the mix's shares (14 fresh, 4 repeats, 2 compactions of 20)
// in seeded order, so seeds vary the inputs, not the mix.
func planRequests(seed int64, n int) []plannedReq {
	rng := rand.New(rand.NewSource(seed))
	round := make([]reqKind, 0, auditRound)
	for k, count := range [...]int{kindFresh: 14, kindRepeat: 4, kindCompact: 2} {
		for range count {
			round = append(round, reqKind(k))
		}
	}
	plan := make([]plannedReq, n)
	var repeatable []int
	for base := 0; base < n; base += auditRound {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for k, kind := range round {
			i := base + k
			if i >= n {
				break
			}
			// A fresh query at least two requests per client back has
			// been answered by now in a closed loop, so its repeat is a
			// store read.
			if j := i - 2*auditClients; j >= 0 && plan[j].kind == kindFresh {
				repeatable = append(repeatable, j)
			}
			if kind == kindRepeat && len(repeatable) == 0 {
				kind = kindFresh
			}
			switch kind {
			case kindRepeat:
				j := repeatable[rng.Intn(len(repeatable))]
				plan[i] = plannedReq{kind: kindRepeat, repeatOf: j, seed: plan[j].seed}
			default:
				plan[i] = plannedReq{kind: kind, seed: rng.Int63()}
			}
		}
	}
	return plan
}

// auditInputs builds request bodies for one interned circuit.
type auditInputs struct {
	c     *satpg.Circuit
	id    string
	tests int
	pool  []service.ProgramJSON // valid programs the compact requests draw from
}

// coverageTests is the random test set of a coverage request: patterns
// only, so the service judges against its own good machine.
func (in *auditInputs) coverageTests(seed int64) []satpg.Test {
	rng := rand.New(rand.NewSource(seed))
	mask := uint64(1)<<uint(in.c.NumInputs()) - 1
	ts := make([]satpg.Test, in.tests)
	for t := range ts {
		ts[t].Patterns = make([]uint64, auditCycles)
		for k := range ts[t].Patterns {
			ts[t].Patterns[k] = rng.Uint64() & mask
		}
	}
	return ts
}

func (in *auditInputs) body(r plannedReq) ([]byte, error) {
	if r.kind == kindCompact {
		rng := rand.New(rand.NewSource(r.seed))
		progs := make([]service.ProgramJSON, auditPrograms)
		for i, k := range rng.Perm(len(in.pool))[:auditPrograms] {
			progs[i] = in.pool[k]
		}
		return json.Marshal(&service.CompactRequest{Circuit: in.id, Faults: "both", Mode: "all", Programs: progs})
	}
	ts := in.coverageTests(r.seed)
	wire := make([]service.TestJSON, len(ts))
	for i, t := range ts {
		wire[i] = service.TestJSON{Patterns: t.Patterns}
	}
	return json.Marshal(&service.CoverageRequest{Circuit: in.id, Faults: "both", Tests: wire})
}

// validPrograms draws tester programs whose every vector settles fully
// definite on the good scalar machine, flipping one or two inputs per
// cycle (holding the inputs when no flip settles), with the expected
// responses read off that machine.
func validPrograms(c *satpg.Circuit, rng *rand.Rand, n, length int) []service.ProgramJSON {
	m := sim.Machine{C: c}
	reset := m.InitState()
	resetOut := atpg.ResetOutputs(c)
	nin := c.NumInputs()
	var rails uint64
	for i := 0; i < nin; i++ {
		if reset[i] == logic.One {
			rails |= 1 << uint(i)
		}
	}
	out := make([]service.ProgramJSON, n)
	for p := range out {
		st, cur := reset, rails
		prog := service.ProgramJSON{ResetExpected: resetOut}
		for t := 0; t < length; t++ {
			next, pat := m.Step(st, cur), cur
			for try := 0; try < 8; try++ {
				cand := cur ^ 1<<uint(rng.Intn(nin))
				if rng.Intn(2) == 0 {
					cand ^= 1 << uint(rng.Intn(nin))
				}
				if s := m.Step(st, cand); s.AllDefinite() {
					next, pat = s, cand
					break
				}
			}
			var outs uint64
			for j, sig := range c.Outputs {
				if next[sig] == logic.One {
					outs |= 1 << uint(j)
				}
			}
			prog.Patterns = append(prog.Patterns, pat)
			prog.Expected = append(prog.Expected, outs)
			st, cur = next, pat
		}
		out[p] = prog
	}
	return out
}

// send posts one planned request and decodes the answer.
func send(client *http.Client, url string, kind reqKind, body []byte) sample {
	path := "/v1/coverage"
	if kind == kindCompact {
		path = "/v1/compact"
	}
	s := sample{start: time.Now()}
	resp, err := client.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		s.end, s.err = time.Now(), err
		return s
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return s
	}
	if kind == kindCompact {
		s.cmp = &service.CompactResponse{}
		s.err = json.Unmarshal(data, s.cmp)
	} else {
		s.cov = &service.CoverageResponse{}
		s.err = json.Unmarshal(data, s.cov)
	}
	return s
}

func runAudit(cfg *config, o *outcome) error {
	name, tests := "s953", auditTests
	if cfg.small {
		name, tests = "s27", 16
	}
	raw, err := os.ReadFile(filepath.Join(cfg.root, "examples", "iscas", name+".ckt"))
	if err != nil {
		return err
	}
	text := string(raw)

	var setupTr *tracer
	if cfg.trace {
		setupTr = newTracer(cfg.runID + "/setup")
	}
	var c *satpg.Circuit
	var srv *auditServer
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	setupS, err := repeatSetup(cfg, func() error {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		id := setupTr.begin("netlist.parse", 0)
		var err error
		c, err = satpg.ParseCircuitString(text, name)
		setupTr.end(id)
		if err != nil {
			return err
		}
		srv, err = startServer(cfg, text)
		return err
	})
	if err != nil {
		return err
	}

	// Enough requests for the window at several times the expected
	// rate; the loop stops at the deadline.
	plan := planRequests(cfg.seed, max(int(cfg.seconds*100), 2*auditRound))
	in := &auditInputs{c: c, id: srv.id, tests: tests,
		pool: validPrograms(c, rand.New(rand.NewSource(cfg.seed)), 2*auditPrograms, auditCycles)}
	universe := len(satpg.SelectedUniverse(c, satpg.InputStuckAt, satpg.SelectBoth))

	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.runID)
	}
	client := &http.Client{Timeout: 120 * time.Second}
	samples := make([]sample, len(plan)) // slot i is written by the client that took request i
	// Requests are handed out under take.  Before the first request of
	// each round, the client that took it waits, holding take, until no
	// request is in flight (gate), then times the reference kernel, so
	// the kernel never shares the cores with the service.
	var (
		take    sync.Mutex
		gate    sync.RWMutex
		next    int
		cal     []float64
		rssOnce sync.Once
		rssMB   float64
		wg      sync.WaitGroup
	)
	var completed atomic.Int64
	resetPeakRSS()
	start := time.Now()
	deadline := start.Add(cfg.window())
	for w := 0; w < auditClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				take.Lock()
				i := next
				next++
				if i >= len(plan) || (i >= 2*auditRound && time.Now().After(deadline)) {
					take.Unlock()
					return
				}
				if i%auditRound == 0 {
					gate.Lock()
					cal = append(cal, calibrate())
					gate.Unlock()
				}
				gate.RLock()
				take.Unlock()
				var traced bool
				if cfg.trace {
					traced = (i/auditRound)%2 == 1
				}
				body, err := in.body(plan[i])
				if err != nil {
					gate.RUnlock()
					now := time.Now()
					samples[i] = sample{done: true, start: now, end: now, err: err}
					continue
				}
				s := send(client, srv.url, plan[i].kind, body)
				gate.RUnlock()
				s.done = true
				samples[i] = s
				if completed.Add(1) == auditRSSAt {
					rssOnce.Do(func() { rssMB = peakRSSMB() })
				}
				if traced {
					id := tr.record("service.request", 0, s.start, s.end, false)
					if ns, ok := s.handlerNS(); ok {
						tr.record("service.handler", id, s.end.Add(-time.Duration(ns)), s.end, false)
					}
				}
			}
		}()
	}
	wg.Wait()
	rssOnce.Do(func() { rssMB = peakRSSMB() }) // a run shorter than auditRSSAt requests

	// Output checks.
	var lat, handlerMS, wireMS, compactS []float64
	var covDet, covTot, vectors, before, after int
	var patterns, evals, hits, misses int64
	var freshDone []int
	for i := range samples {
		s := &samples[i]
		if !s.done {
			continue
		}
		o.attempt()
		lat = append(lat, s.latencyMS())
		if s.err != nil {
			o.fail("request %d: %v", i, s.err)
			continue
		}
		if ns, ok := s.handlerNS(); ok {
			handlerMS = append(handlerMS, float64(ns)/1e6)
			wireMS = append(wireMS, s.latencyMS()-float64(ns)/1e6)
		}
		switch r := &plan[i]; r.kind {
		case kindCompact:
			cr := s.cmp
			if cr.Before != auditPrograms || cr.After > cr.Before || cr.After != len(cr.Programs) || cr.Detected == 0 {
				o.fail("request %d: compaction bookkeeping: before %d of %d sent, after %d, %d programs, %d detected",
					i, cr.Before, auditPrograms, cr.After, len(cr.Programs), cr.Detected)
				continue
			}
			before += cr.Before
			after += cr.After
			for _, p := range cr.Programs {
				vectors += len(p.Patterns)
			}
			if !cr.FromStore {
				compactS = append(compactS, float64(cr.ElapsedNS)/1e9)
			}
		case kindFresh, kindRepeat:
			cv := s.cov
			det := 0
			for _, v := range cv.PerFault {
				if v.Detected {
					det++
				}
			}
			if cv.Total != universe || len(cv.PerFault) != universe || cv.Detected != det {
				o.fail("request %d: coverage bookkeeping: total %d of %d faults, %d verdicts, %d detected of %d claimed",
					i, cv.Total, universe, len(cv.PerFault), det, cv.Detected)
				continue
			}
			if r.kind == kindRepeat {
				orig := samples[r.repeatOf].cov
				if orig == nil || !sameVerdicts(orig, cv) {
					o.fail("request %d: repeat of request %d disagrees with the fresh answer", i, r.repeatOf)
				}
				continue
			}
			freshDone = append(freshDone, i)
			covDet += det
			covTot += cv.Total
			if !cv.FromStore {
				patterns += cv.Patterns
				evals += cv.GateEvals
				hits += cv.CacheHits
				misses += cv.CacheMiss
			}
		}
	}

	// Re-measure a seeded sample of fresh queries in-process.
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	var fsimS []float64
	for k := 0; k < auditRecheck && len(freshDone) > 0; k++ {
		j := rng.Intn(len(freshDone))
		i := freshDone[j]
		freshDone = append(freshDone[:j], freshDone[j+1:]...)
		rep, err := satpg.FaultSimBatch(c, satpg.InputStuckAt, in.coverageTests(plan[i].seed), satpg.Options{Faults: satpg.SelectBoth})
		if err != nil {
			o.fail("re-measuring request %d: %v", i, err)
			continue
		}
		fsimS = append(fsimS, rep.Elapsed.Seconds())
		cv := samples[i].cov
		ok := rep.Total == len(cv.PerFault)
		for f := 0; ok && f < rep.Total; f++ {
			ok = rep.PerFault[f].Detected == cv.PerFault[f].Detected
		}
		if !ok {
			o.fail("request %d: service verdicts differ from the in-process FaultSimBatch", i)
		}
	}

	rounds := roundTimes(samples, func(int) bool { return true })
	o.samples = len(lat)
	if !cfg.trace {
		o.e2e = map[string]metric{
			"setup_s":            {median(setupS), "s"},
			"pipeline_s":         {median(rounds), "s"},
			"fault_coverage_pct": {pct(covDet, covTot), "%"},
			"peak_rss_mb":        {rssMB, "MB"},
			"query_p50_ms":       {quantile(lat, 0.50), "ms"},
			"query_p95_ms":       {quantile(lat, 0.95), "ms"},
			"queries_per_s":      {auditRound / median(rounds), "1/s"},
		}
		fmt.Printf("# round wall times (s): %.3g\n", rounds)
		fmt.Println(scaleTimes(o.e2e, cal))
		return nil
	}

	if err := writeSpans(cfg, tr, setupTr); err != nil {
		return err
	}
	metrics, err := scrapeMetrics(client, srv.url)
	if err != nil {
		return err
	}
	var parse []float64
	for _, s := range setupTr.spans {
		parse = append(parse, s.dur())
	}
	// Even rounds ran untraced, odd rounds traced.
	untraced := roundTimes(samples, func(r int) bool { return r%2 == 0 })
	traced := roundTimes(samples, func(r int) bool { return r%2 == 1 })
	st := srv.store.Stats()
	l := zeroLayers()
	l["netlist.parse_s"] = metric{median(parse), "s"}
	l["fsim.s"] = metric{median(fsimS), "s"}
	l["fsim.patterns"] = metric{float64(patterns), "count"}
	l["fsim.gate_evals"] = metric{float64(evals), "count"}
	l["fsim.evals_per_pattern"] = metric{float64(evals) / float64(max(patterns, 1)), "count"}
	l["fsim.trace_cache_hit_ratio"] = metric{float64(hits) / float64(max(hits+misses, 1)), "ratio"}
	l["compact.s"] = metric{median(compactS), "s"}
	l["compact.tests_before"] = metric{float64(before), "count"}
	l["compact.tests_after"] = metric{float64(after), "count"}
	l["test_vectors"] = metric{float64(vectors), "count"}
	l["service.handler_ms"] = metric{median(handlerMS), "ms"}
	l["service.wire_ms"] = metric{median(wireMS), "ms"}
	l["service.errors"] = metric{metrics["satpgd_errors_total"], "count"}
	l["service.encode_failures"] = metric{metrics["satpgd_encode_failures_total"], "count"}
	l["resultstore.hits"] = metric{float64(st.Hits), "count"}
	l["resultstore.misses"] = metric{float64(st.Misses), "count"}
	l["resultstore.hit_ratio"] = metric{float64(st.Hits) / float64(max(st.Hits+st.Misses, 1)), "ratio"}
	l["resultstore.puts"] = metric{float64(st.Puts), "count"}
	l["trace.pipeline_s"] = metric{median(traced), "s"}
	l["trace.overhead_s"] = metric{median(traced) - median(untraced), "s"}
	o.layer = l
	return nil
}

// roundTimes returns the wall time of every complete round keep
// selects, from its first request's start to its last answer.
func roundTimes(samples []sample, keep func(round int) bool) []float64 {
	var out []float64
	for base := 0; base+auditRound <= len(samples); base += auditRound {
		if !keep(base / auditRound) {
			continue
		}
		var first, last time.Time
		complete := true
		for _, s := range samples[base : base+auditRound] {
			if !s.done {
				complete = false
				break
			}
			if first.IsZero() || s.start.Before(first) {
				first = s.start
			}
			if s.end.After(last) {
				last = s.end
			}
		}
		if complete {
			out = append(out, last.Sub(first).Seconds())
		}
	}
	return out
}

func sameVerdicts(a, b *service.CoverageResponse) bool {
	if len(a.PerFault) != len(b.PerFault) {
		return false
	}
	for i := range a.PerFault {
		if a.PerFault[i].Detected != b.PerFault[i].Detected {
			return false
		}
	}
	return true
}

// scrapeMetrics reads the service's /metrics counters.
func scrapeMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = f
			}
		}
	}
	return out, sc.Err()
}
