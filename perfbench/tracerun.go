package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/datagen"
)

// runTrace is the traced run: the workload's first traceN requests are
// replayed in-process, one client in a closed loop, four times on fresh
// deployments —
//
//	layers         one public call per layer, spans on (the layer table)
//	layers_nospan  the same recording request spans only (the recorder's
//	               overhead)
//	service        through the service's text entry point, with a Registry
//	service_noreg  the same without a Registry (the obs overhead)
//
// — then once more over HTTP against estocada-serve for the wire cost.
// Counts (store requests, rewrites, chases, replans) repeat for a seed as
// long as the planner picks the same plans (its cost model reads measured
// store latencies); times do not.
func runTrace(o options, data *datagen.Marketplace) (*summary, error) {
	reqs, err := workloadStream(data, o.workload, o.seed, o.spec.traceN)
	if err != nil {
		return nil, err
	}
	if err := selfTest(data, o.workload, o.seed, reqs); err != nil {
		return nil, fmt.Errorf("generator self-test: %w", err)
	}
	s := &summary{metrics: map[string]float64{}}
	var firstFail string
	note := func(c *replayCounts) {
		s.attempted += len(reqs)
		s.failed += c.failed
		if firstFail == "" && c.firstErr != "" {
			firstFail = c.firstErr
		}
	}
	fresh := func(registry bool) (*deployment, error) {
		runtime.GC()
		return newDeployment(users, registry)
	}

	// Both pairs of replays run interleaved (see interleave), each replay
	// on its own fresh deployment.
	depA, err := fresh(true)
	if err != nil {
		return nil, err
	}
	depD, err := fresh(true)
	if err != nil {
		return nil, err
	}
	recA := newRecorder(true, 9*len(reqs))
	recD := newRecorder(false, len(reqs))
	answers := map[int]answer{}
	la := newLayerReplay(depA, reqs, recA, answers)
	ld := newLayerReplay(depD, reqs, recD, nil)
	interleave(len(reqs), la.step, ld.step)
	la.finish()
	cA := la.c
	note(cA)
	note(ld.c)
	depA, depD, la, ld = nil, nil, nil, nil

	// The deployment's own heap: in use after its set-up, less what the
	// benchmark held before.
	runtime.GC()
	heap0 := sampleMem().HeapInuse
	depB, err := newDeployment(users, true)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	heapInuse := (float64(sampleMem().HeapInuse) - float64(heap0)) / 1e6
	depC, err := fresh(false)
	if err != nil {
		return nil, err
	}
	recB := newRecorder(true, 5*len(reqs))
	recC := newRecorder(true, 5*len(reqs))
	sb := newServiceReplay(depB, reqs, recB)
	sc := newServiceReplay(depC, reqs, recC)
	allocs, bytes, gcFrac := interleave(len(reqs), sb.step, sc.step)
	cB := sb.c
	note(cB)
	note(sc.c)
	depB, depC, sb, sc = nil, nil, nil, nil

	wire, wireFailed, err := wireReplay(o, data, reqs[:min(len(reqs), o.spec.wireN)])
	if err != nil {
		return nil, err
	}
	s.attempted += min(len(reqs), o.spec.wireN)
	s.failed += wireFailed

	wrong := checkStream(newRefDB(data), reqs, cA.ok, answers)
	s.failed += len(wrong)
	s.correct = len(wrong) == 0
	for i := range reqs {
		if why, bad := wrong[i]; bad {
			firstFail = fmt.Sprintf("wrong answer to request %d (%s): %s", i, reqs[i].sql, why)
			break
		}
	}

	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv", o.workload, o.seed))
	if err := writeSpans(path, map[string]*recorder{"layers": recA, "layers_nospan": recD, "service": recB, "service_noreg": recC}); err != nil {
		return nil, err
	}
	spansA, err := readSpans(path, "layers")
	if err != nil {
		return nil, err
	}
	spansB, err := readSpans(path, "service")
	if err != nil {
		return nil, err
	}
	spansC, err := readSpans(path, "service_noreg")
	if err != nil {
		return nil, err
	}
	spansD, err := readSpans(path, "layers_nospan")
	if err != nil {
		return nil, err
	}

	m := s.metrics
	q := float64(cA.queries)
	n := float64(len(reqs))
	m["serve.wire_us"] = percentile(wire, 0.5) / 1e3
	m["lang.parse_us"] = percentile(durations(spansA, spParse, 0, 0), 0.5) / 1e3
	m["service.canonicalize_us"] = percentile(durations(spansA, spCanon, 0, 0), 0.5) / 1e3
	m["service.open_us"] = percentile(durations(spansB, spOpen, 0, 0), 0.5) / 1e3
	m["service.close_us"] = percentile(durations(spansB, spSvcClose, 0, 0), 0.5) / 1e3
	m["service.cache_hit_ratio"] = ratio(float64(cB.hits), float64(cB.queries))
	obsDiff, _ := requestDiffs(spansB, spansC)
	m["obs.overhead_us_per_query"] = median(obsDiff) / 1e3
	m["obs.overhead_allocs_per_query"] = ratio(float64(allocs[0])-float64(allocs[1]), n)
	misses := float64(cA.misses)
	rewriteNs := sum(durations(spansA, spRewrite, 0, 0))
	m["rewrite.ms_per_miss"] = ratio(rewriteNs, misses) / 1e6
	m["rewrite.verification_chases_per_miss"] = ratio(float64(cA.chases), misses)
	m["translate.plan_ms_per_miss"] = ratio(sum(durations(spansA, spPrepare, 0, 0))-rewriteNs, misses) / 1e6
	m["core.bind_open_us"] = percentile(durations(spansA, spBindOpen, flagMiss, 0), 0.5) / 1e3
	m["exec.first_batch_us"] = percentile(durations(spansA, spFirstBatch, 0, 0), 0.5) / 1e3
	m["exec.drain_ms"] = percentile(durations(spansA, spDrain, 0, 0), 0.5) / 1e6
	m["exec.rows_per_query"] = ratio(float64(cA.rows), q)
	var tuples float64
	for _, store := range []string{"redis", "pg", "mongo", "solr", "spark"} {
		c := cA.perStore[store]
		m["store."+store+".requests_per_query"] = ratio(float64(c.Requests), q)
		m["store."+store+".tuples_per_query"] = ratio(float64(c.Tuples), q)
		tuples += float64(c.Tuples)
	}
	m["engines.tuples_per_row"] = ratio(tuples, float64(cA.rows))
	m["maintain.write_ms"] = percentile(durations(spansA, spWrite, 0, 0), 0.5) / 1e6
	m["maintain.fragment_rows_per_write"] = ratio(float64(cA.fragmentRows), float64(cA.writes))
	m["core.replans"] = float64(cA.replans)
	m["proc.allocs_per_query"] = ratio(float64(allocs[0]), n)
	m["proc.bytes_per_query"] = ratio(float64(bytes[0]), n)
	m["proc.gc_cpu_fraction"] = gcFrac
	m["proc.heap_inuse_mb"] = heapInuse
	// The recorder's cost: directly, per span, and as the median
	// per-request difference between the layer replay with spans and the
	// same replay recording request spans only.
	perSpan := spanCost()
	traceDiff, traceBase := requestDiffs(spansA, spansD)
	m["trace.overhead_ns_per_span"] = perSpan
	m["trace.overhead_frac"] = ratio(median(traceDiff), median(traceBase))

	fmt.Printf("replayed %d requests (%d reads, %d writes) four times in-process, %d over HTTP; %d first-seen fingerprints; %d spans dropped\n",
		len(reqs), cA.queries, cA.writes, min(len(reqs), o.spec.wireN), cA.misses, recA.dropped+recB.dropped+recC.dropped+recD.dropped)
	fmt.Printf("span recorder: %.0f ns per span, %.1f child spans per request (%.2f%% of the median request); replay with spans against request spans only: median per-request difference %.2f us\n",
		perSpan, float64(recA.n-len(reqs))/n, 100*ratio(perSpan*float64(recA.n-len(reqs))/n, median(traceBase)), median(traceDiff)/1e3)
	fmt.Printf("checked: %d answers against the reference evaluator, %d wrong; failed %d of %d attempted\n", len(answers), len(wrong), s.failed, s.attempted)
	if firstFail != "" {
		fmt.Printf("first failure: %s\n", firstFail)
	}
	fmt.Printf("spans: %s\n", path)
	printLayerTable(os.Stdout, o.workload+": layer replay", spansA)
	printLayerTable(os.Stdout, o.workload+": service replay", spansB)
	fmt.Printf("per-layer metric → end-to-end metric it should move (on workload):\n")
	for _, d := range perLayer {
		fmt.Printf("  %-38s %-18s → %s (%s)\n", d.name, d.layer, d.moves, d.on)
	}
	return s, nil
}

// wireReplay sends reqs over HTTP to a fresh estocada-serve, one request
// at a time after the workload's warm-up, and returns for every read
// the client latency minus the server's own planTimeUs + execTimeUs, in
// nanoseconds.
func wireReplay(o options, data *datagen.Marketplace, reqs []request) ([]float64, int, error) {
	warm, err := warmStream(data, o.workload, o.seed, o.spec.warm)
	if err != nil {
		return nil, 0, err
	}
	logPath := filepath.Join(o.out, fmt.Sprintf("server-%s-seed%d-trace.log", o.workload, o.seed))
	srv, _, err := launchServer(o.server, logPath, users)
	if err != nil {
		return nil, 0, err
	}
	defer srv.stop()
	wd := newLoadgen(srv.base, warm, 1)
	wd.closedLoop(0, time.Hour, 1)
	wd.close()
	d := newLoadgen(srv.base, reqs, 1)
	d.reports = true
	d.closedLoop(0, time.Hour, 1)
	d.close()
	var wire []float64
	failed := 0
	for i := range reqs {
		out := &d.out[i]
		if !out.ok() {
			failed++
			continue
		}
		if reqs[i].kind == kindQuery {
			wire = append(wire, float64(out.end-out.sent)-1e3*float64(out.planUs+out.execUs))
		}
	}
	return wire, failed, nil
}
