// perfbench is the repository's benchmark. It drives a real estocada-serve
// process over HTTP with one of three seeded workloads and reports
// end-to-end metrics, or (with -trace 1) replays the same stream
// in-process with spans around every call into a layer and reports
// per-layer metrics. Build and run it through run.sh from the repository
// root:
//
//	bash perfbench/run.sh --workload hot_lookup --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload adhoc_join --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh compare -base 'a/*.json' -head 'b/*.json'
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/datagen"
)

// spec fixes one workload's load. Rates are open-loop arrivals per second,
// a tenth to a third of the workload's closed-loop capacity on a 2-CPU
// host: low enough that the latencies are not the queue of a saturated,
// shared host.
type spec struct {
	rate   float64
	warm   int // untimed warm-up requests
	traceN int // requests the traced run replays
	wireN  int // requests of the traced run's HTTP replay
}

var specs = map[string]spec{
	"hot_lookup": {rate: 500, warm: 2000, traceN: 20000, wireN: 3000},
	"adhoc_join": {rate: 50, warm: 100, traceN: 400, wireN: 200},
	"write_mix":  {rate: 100, warm: 300, traceN: 1200, wireN: 600},
}

// users is datagen's default marketplace size; the server is started with
// -users set to it.
const users = 2000

// conns is the load generator's connection count: one per CPU.
var conns = runtime.NumCPU()

type metricDef struct {
	name, unit string
	// layer, moves and on document a per-layer metric: the module it
	// measures, the end-to-end metric it should move, and on which
	// workload.
	layer, moves, on string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "query_p50_ms", unit: "ms"},
	{name: "query_p95_ms", unit: "ms"},
	{name: "ttfr_p50_ms", unit: "ms"},
	{name: "cpu_ms_per_req", unit: "ms"},
	{name: "rss_peak_mb", unit: "MB"},
}

var perLayer = []metricDef{
	{"serve.wire_us", "us", "cmd/estocada-serve", "query_p50_ms, cpu_ms_per_req", "hot_lookup"},
	{"lang.parse_us", "us", "lang", "query_p50_ms", "hot_lookup"},
	{"service.canonicalize_us", "us", "service", "query_p50_ms", "hot_lookup"},
	{"service.open_us", "us", "service", "query_p50_ms, cpu_ms_per_req", "hot_lookup"},
	{"service.close_us", "us", "service", "query_p50_ms, cpu_ms_per_req", "hot_lookup"},
	{"service.cache_hit_ratio", "ratio", "service", "query_p95_ms", "adhoc_join"},
	{"obs.overhead_us_per_query", "us", "obs/workload", "cpu_ms_per_req", "hot_lookup"},
	{"obs.overhead_allocs_per_query", "count", "obs/workload", "cpu_ms_per_req", "hot_lookup"},
	{"rewrite.ms_per_miss", "ms", "rewrite", "query_p95_ms, cpu_ms_per_req", "adhoc_join"},
	{"rewrite.verification_chases_per_miss", "count", "rewrite", "query_p95_ms, cpu_ms_per_req", "adhoc_join"},
	{"translate.plan_ms_per_miss", "ms", "translate", "query_p95_ms", "adhoc_join"},
	{"core.bind_open_us", "us", "core", "query_p50_ms", "hot_lookup, adhoc_join"},
	{"exec.first_batch_us", "us", "exec", "ttfr_p50_ms", "adhoc_join"},
	{"exec.drain_ms", "ms", "exec", "query_p50_ms, capacity_qps", "adhoc_join"},
	{"exec.rows_per_query", "count", "exec", "query_p50_ms, capacity_qps", "adhoc_join"},
	{"store.redis.requests_per_query", "count", "engines", "query_p50_ms", "hot_lookup"},
	{"store.redis.tuples_per_query", "count", "engines", "query_p50_ms", "hot_lookup"},
	{"store.pg.requests_per_query", "count", "engines", "query_p50_ms", "hot_lookup, adhoc_join"},
	{"store.pg.tuples_per_query", "count", "engines", "query_p50_ms", "hot_lookup, adhoc_join"},
	{"store.mongo.requests_per_query", "count", "engines", "query_p50_ms", "adhoc_join"},
	{"store.mongo.tuples_per_query", "count", "engines", "query_p50_ms", "adhoc_join"},
	{"store.solr.requests_per_query", "count", "engines", "query_p50_ms", "adhoc_join"},
	{"store.solr.tuples_per_query", "count", "engines", "query_p50_ms", "adhoc_join"},
	{"store.spark.requests_per_query", "count", "engines", "query_p50_ms", "adhoc_join"},
	{"store.spark.tuples_per_query", "count", "engines", "query_p50_ms", "adhoc_join"},
	{"engines.tuples_per_row", "ratio", "engines", "cpu_ms_per_req", "adhoc_join"},
	{"maintain.write_ms", "ms", "maintain", "cpu_ms_per_req, capacity_qps", "write_mix"},
	{"maintain.fragment_rows_per_write", "count", "maintain", "cpu_ms_per_req", "write_mix"},
	{"core.replans", "count", "core", "query_p95_ms", "write_mix"},
	{"proc.allocs_per_query", "count", "Go runtime", "cpu_ms_per_req", "all"},
	{"proc.bytes_per_query", "B", "Go runtime", "cpu_ms_per_req", "all"},
	{"proc.gc_cpu_fraction", "ratio", "Go runtime", "capacity_qps", "adhoc_join"},
	{"proc.heap_inuse_mb", "MB", "Go runtime", "rss_peak_mb", "all"},
	{"trace.overhead_ns_per_span", "ns", "perfbench", "(none: tracing is off in timed runs)", "all"},
	{"trace.overhead_frac", "ratio", "perfbench", "(none: tracing is off in timed runs)", "all"},
}

// summary is one run's outcome.
type summary struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

type options struct {
	workload string
	seed     int64
	seconds  int
	root     string
	server   string
	out      string
	spec     spec
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "hot_lookup, adhoc_join or write_mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "measured seconds of the HTTP run (3/4 open loop, 1/4 closed loop)")
	trace := flag.Int("trace", 0, "0: timed HTTP run, end-to-end metrics; 1: traced in-process replay, per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.server, "server", "", "estocada-serve binary built from the repository")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for logs, spans and result files")
	flag.Parse()
	var ok bool
	if o.spec, ok = specs[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (hot_lookup, adhoc_join, write_mix)\n", o.workload)
		os.Exit(2)
	}
	if o.server == "" || o.seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	data := datagen.DefaultMarketplace()
	data.Users = users
	market := datagen.NewMarketplace(data)
	st := newStamp(o.root, o.seed, market)
	fmt.Printf("host: %s revision=%s source=%s seed=%d workload=%s\n", st.host(), st.Revision, st.Source, o.seed, o.workload)
	var s *summary
	var err error
	defs := endToEnd
	if *trace == 1 {
		s, err = runTrace(o, market)
		defs = perLayer
	} else {
		s, err = runHTTP(o, market)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := resultFile{Workload: o.workload, Trace: *trace, Stamp: st, Correct: s.correct, Attempted: s.attempted, Failed: s.failed, Metrics: s.metrics}
	raw, _ := json.MarshalIndent(res, "", "  ")
	path := filepath.Join(o.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, *trace))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{s.correct, s.attempted, s.failed, map[string]metric{}}
	for _, d := range defs {
		v := s.metrics[d.name]
		fmt.Printf("%-40s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupLaunches is how many times a timed run starts the server; setup_s
// is the median, and the last server serves the run.
const setupLaunches = 5

// failureCap is the latency a failed request counts with: it misses any
// latency limit.
const failureCap = 30 * time.Second

// runHTTP is the timed run: set-up (setupLaunches launches, the last one
// serves), warm-up, an open-loop phase at the workload's fixed rate over
// 3/4 of the measured time, then a closed-loop phase over the rest, then
// the result check against the reference evaluator.
func runHTTP(o options, data *datagen.Marketplace) (*summary, error) {
	total := time.Duration(o.seconds) * time.Second
	openDur := total * 3 / 4
	closedDur := total - openDur
	nOpen := int(o.spec.rate * openDur.Seconds())
	// The closed loop runs at capacity (three to twelve times the rate);
	// the stream is long enough for sixteen times the rate.
	nTotal := nOpen + int(16*o.spec.rate*closedDur.Seconds()) + 64
	reqs, err := workloadStream(data, o.workload, o.seed, nTotal)
	if err != nil {
		return nil, err
	}
	warm, err := warmStream(data, o.workload, o.seed, o.spec.warm)
	if err != nil {
		return nil, err
	}
	if err := selfTest(data, o.workload, o.seed, reqs); err != nil {
		return nil, fmt.Errorf("generator self-test: %w", err)
	}
	runtime.GC()

	logPath := filepath.Join(o.out, fmt.Sprintf("server-%s-seed%d.log", o.workload, o.seed))
	var setups []float64
	var srv *serverProc
	for k := 0; k < setupLaunches; k++ {
		if srv != nil {
			srv.stop()
		}
		s, d, err := launchServer(o.server, logPath, users)
		if err != nil {
			return nil, err
		}
		srv = s
		setups = append(setups, d.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	wd := newLoadgen(srv.base, warm, conns)
	wd.closedLoop(0, time.Hour, conns)
	wd.close()
	s := &summary{metrics: map[string]float64{}}
	var firstFail string
	for i := range warm {
		if o := &wd.out[i]; !o.ok() {
			s.failed++
			if firstFail == "" {
				firstFail = fmt.Sprintf("warm-up request %d (%s): %s", i, warm[i].path, o.err)
			}
		}
	}
	s.attempted = len(warm)

	d := newLoadgen(srv.base, reqs, conns)
	// The generator's own garbage collections would show as lag; run
	// them rarely while timing.
	runtime.GC()
	gcPercent := debug.SetGCPercent(800)
	host0, steal0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	// The server's CPU time at the start of each open-loop window and at
	// the end of the phase.
	var cpuMarks []time.Duration
	var markErr error
	mark := func() {
		c, err := srv.cpuTime()
		if err != nil && markErr == nil {
			markErr = err
		}
		cpuMarks = append(cpuMarks, c)
	}
	ph := d.openLoop(0, nOpen, o.spec.rate, conns, mark)
	mark()
	if markErr != nil {
		return nil, markErr
	}
	host1, steal1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	cp := d.closedLoop(nOpen, closedDur, conns)
	nClosed := cp.n
	debug.SetGCPercent(gcPercent)
	d.close()
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	srv.stop()
	stopped = true

	// Result check.
	n := nOpen + nClosed
	s.attempted += n
	ok := make([]bool, n)
	answers := map[int]answer{}
	for i := 0; i < n; i++ {
		r, out := &reqs[i], &d.out[i]
		err := ""
		switch {
		case !out.ok():
			err = out.err
		case r.kind == kindQuery && r.check:
			a, derr := decodeAnswer(out.body, r.stream)
			if derr != nil {
				err = "undecodable answer: " + derr.Error()
			} else {
				answers[i] = a
			}
		case r.kind != kindQuery:
			var ack struct{ Inserted, Deleted int }
			if jerr := json.Unmarshal(out.body, &ack); jerr != nil || ack.Inserted+ack.Deleted != 1 {
				err = fmt.Sprintf("write not acknowledged as one row: %s", out.body)
			}
		}
		if err != "" {
			s.failed++
			if firstFail == "" {
				firstFail = fmt.Sprintf("request %d (%s %s): %s", i, r.path, r.sql, err)
			}
			continue
		}
		ok[i] = true
	}
	wrong := checkStream(newRefDB(data), reqs[:n], ok, answers)
	s.failed += len(wrong)
	for i := 0; i < n && firstFail == ""; i++ {
		if why, bad := wrong[i]; bad {
			firstFail = fmt.Sprintf("wrong answer to request %d (%s): %s", i, reqs[i].sql, why)
		}
	}

	// Latencies of the open-loop phase, from due time. Time to first row
	// is over the streamed reads when the workload streams, else over all
	// reads (a materialized answer's rows arrive with its first byte).
	streams := false
	for i := 0; i < nOpen; i++ {
		streams = streams || reqs[i].stream
	}
	var queryLat, writeLat, ttfr, lag []float64
	var winQuery, winTTFR [windows][]float64
	var winReqs [windows]int
	byClass := map[string][]float64{}
	for i := 0; i < nOpen; i++ {
		r, out := &reqs[i], &d.out[i]
		w := window(i, nOpen)
		winReqs[w]++
		lat := float64(out.end - out.due)
		if !ok[i] || wrong[i] != "" {
			lat = float64(failureCap)
		}
		lag = append(lag, float64(out.sent-out.due))
		byClass[r.class] = append(byClass[r.class], lat)
		if r.kind != kindQuery {
			writeLat = append(writeLat, lat)
			continue
		}
		queryLat = append(queryLat, lat)
		winQuery[w] = append(winQuery[w], lat)
		if out.first > 0 && ok[i] && r.stream == streams {
			ttfr = append(ttfr, float64(out.first-out.due))
			winTTFR[w] = append(winTTFR[w], float64(out.first-out.due))
		}
	}
	// Per-window figures, in ms; a window without samples gives none.
	// cpuMarks holds one mark per window with requests, then the end.
	var winP50, winP95, winFirst, winCPU []float64
	for w, c := 0, 0; w < windows; w++ {
		if winReqs[w] == 0 {
			continue
		}
		winCPU = append(winCPU, float64(cpuMarks[c+1]-cpuMarks[c])/1e6/float64(winReqs[w]))
		c++
		if l := winQuery[w]; len(l) > 0 {
			winP50 = append(winP50, percentile(l, 0.50)/1e6)
			winP95 = append(winP95, percentile(l, 0.95)/1e6)
		}
		if l := winTTFR[w]; len(l) > 0 {
			winFirst = append(winFirst, percentile(l, 0.50)/1e6)
		}
	}
	cpu := cpuMarks[len(cpuMarks)-1] - cpuMarks[0]
	m := s.metrics
	m["setup_s"] = median(setups)
	m["query_p50_ms"] = median(winP50)
	m["query_p95_ms"] = median(winP95)
	m["query_p99_ms"] = percentile(queryLat, 0.99) / 1e6
	m["ttfr_p50_ms"] = median(winFirst)
	m["capacity_qps"] = d.capacity(cp)
	m["cpu_ms_per_req"] = midMean(winCPU)
	m["rss_peak_mb"] = float64(rss) / 1e6
	m["write_p50_ms"] = percentile(writeLat, 0.50) / 1e6
	m["write_p99_ms"] = percentile(writeLat, 0.99) / 1e6
	m["error_frac"] = float64(s.failed) / float64(s.attempted)
	m["lag_p99_ms"] = percentile(lag, 0.99) / 1e6
	m["host_steal_frac"] = ratio(float64(steal1-steal0), float64(host1-host0))

	limit := max(2*conns, int(0.25*o.spec.rate))
	valid := ph.backlogEnd <= limit
	s.correct = len(wrong) == 0 && valid

	fmt.Printf("setup: %d launches, %v s\n", len(setups), setups)
	fmt.Printf("open loop: %d requests at %.0f/s over %.1fs (%d reads, %d writes); closed loop: %d requests over %.1fs with %d connections\n",
		nOpen, o.spec.rate, ph.elapsed.Seconds(), len(queryLat), len(writeLat), nClosed, time.Duration(cp.last-cp.start).Seconds(), conns)
	fmt.Printf("samples: query %d (%d beyond p99), ttfr %d, write %d\n", len(queryLat), beyond(len(queryLat), 0.99), len(ttfr), len(writeLat))
	fmt.Printf("query latency from due time (ms): p50 %.3f p90 %.3f p95 %.3f p99 %.3f p99.9 %.3f max %.3f\n",
		percentile(queryLat, 0.5)/1e6, percentile(queryLat, 0.9)/1e6, percentile(queryLat, 0.95)/1e6,
		percentile(queryLat, 0.99)/1e6, percentile(queryLat, 0.999)/1e6, percentile(queryLat, 1)/1e6)
	fmt.Printf("whole phase: ttfr p50 %.3f ms, server CPU %.3f ms per request\n",
		percentile(ttfr, 0.5)/1e6, float64(cpu)/1e6/float64(nOpen))
	fmt.Printf("per window (%d of the open loop; the metrics are their medians, cpu their interquartile mean):\n  query p50 ms %.3f\n  query p95 ms %.3f\n  ttfr p50 ms  %.3f\n  cpu ms/req   %.3f\n",
		windows, winP50, winP95, winFirst, winCPU)
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		l := byClass[c]
		fmt.Printf("  %-14s %6d requests  p50 %8.3f ms  p90 %8.3f ms  p99 %8.3f ms\n", c, len(l), percentile(l, 0.5)/1e6, percentile(l, 0.9)/1e6, percentile(l, 0.99)/1e6)
	}
	fmt.Printf("generator: lag p99 %.3f ms; backlog at mid-phase %d, at end %d (limit %d); closed-loop backlog 0 by construction; valid=%v\n",
		m["lag_p99_ms"], ph.backlogMid, ph.backlogEnd, limit, valid)
	fmt.Printf("host: %.1f%% of the machine's CPU time was stolen by the hypervisor during the open loop\n", 100*m["host_steal_frac"])
	fmt.Printf("checked: %d answers against the reference evaluator, %d wrong; failed %d of %d attempted (warm-up included)\n",
		len(answers), len(wrong), s.failed, s.attempted)
	if firstFail != "" {
		fmt.Printf("first failure: %s\n", firstFail)
	}
	fmt.Printf("%-40s %14.6g %s\n%-40s %14.6g %s\n%-40s %14.6g %s\n", "error_frac", m["error_frac"], "ratio",
		"query_p99_ms", m["query_p99_ms"], "ms", "capacity_qps", m["capacity_qps"], "req/s")
	if len(writeLat) > 0 {
		fmt.Printf("%-40s %14.6g %s\n%-40s %14.6g %s\n", "write_p50_ms", m["write_p50_ms"], "ms", "write_p99_ms", m["write_p99_ms"], "ms")
	}
	return s, nil
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// percentile is the nearest-rank q-quantile (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// midMean is the interquartile mean: the mean of xs without its lowest and
// highest quarter. Server CPU is read in 10 ms ticks, so one window's CPU
// per request is coarse; the mean of the middle windows is finer and, like
// the median, not decided by a few stalled ones.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	if len(s) == 0 {
		return 0
	}
	return sum(s) / float64(len(s))
}

// quartiles are the first and third quartiles by the exclusive method
// (Python's statistics.quantiles(xs, n=4)).
func quartiles(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
