package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engines/engine"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/pivot"
	"repro/internal/rewrite"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/value"
)

// The traced run replays a workload stream in-process, one client in a
// closed loop, and records spans from this file around each public call
// into a layer. Nothing inside the program is instrumented for it.

type spanName uint8

const (
	spRequest spanName = iota
	spParse
	spCanon
	spRewrite
	spPrepare
	spBindOpen
	spFirstBatch
	spDrain
	spClose
	spWrite
	spOpen
	spSvcClose
)

var spanNames = [...]string{
	spRequest:    "bench.request",
	spParse:      "lang.parse",
	spCanon:      "service.canonicalize",
	spRewrite:    "rewrite.rewrite",
	spPrepare:    "core.prepare",
	spBindOpen:   "core.bind_open",
	spFirstBatch: "exec.first_batch",
	spDrain:      "exec.drain",
	spClose:      "exec.close",
	spWrite:      "maintain.write",
	spOpen:       "service.open",
	spSvcClose:   "service.close",
}

// Span flags.
const (
	flagMiss  = 1 // the request's fingerprint was first seen
	flagWrite = 2 // the request is a write
)

type span struct {
	req    int32
	name   spanName
	flag   uint8
	parent int32 // buffer index of the enclosing span, -1 for a request
	start  int64 // ns since the recorder's epoch
	dur    int64
}

// recorder keeps spans in a buffer sized before the replay starts, so
// recording a span allocates nothing. With children unset it records only
// the request spans (the replay that measures the recorder's own
// overhead).
type recorder struct {
	children bool
	epoch    time.Time
	buf      []span
	n        int
	dropped  int
}

func newRecorder(children bool, capacity int) *recorder {
	return &recorder{children: children, epoch: time.Now(), buf: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// open reserves a request span, finished by closeSpan.
func (r *recorder) open(req int, flag uint8) int32 {
	if r.n == len(r.buf) {
		r.dropped++
		return -1
	}
	r.buf[r.n] = span{req: int32(req), name: spRequest, flag: flag, parent: -1, start: r.now()}
	r.n++
	return int32(r.n - 1)
}

func (r *recorder) closeSpan(i int32) {
	if i >= 0 {
		r.buf[i].dur = r.now() - r.buf[i].start
	}
}

// end records a child span of parent that began at t0.
func (r *recorder) end(name spanName, parent int32, t0 int64) {
	if !r.children {
		return
	}
	if parent < 0 || r.n == len(r.buf) {
		r.dropped++
		return
	}
	p := &r.buf[parent]
	r.buf[r.n] = span{req: p.req, name: name, flag: p.flag, parent: parent, start: t0, dur: r.now() - t0}
	r.n++
}

func (r *recorder) spans() []span { return r.buf[:r.n] }

// deployment is an in-process estocada-serve: the same scenario, write
// path and service options its deploy builds.
type deployment struct {
	sys *core.System
	svc *service.Service
}

func newDeployment(users int, registry bool) (*deployment, error) {
	cfg := datagen.DefaultMarketplace()
	cfg.Users = users
	m, err := scenario.New(cfg, scenario.Materialized)
	if err != nil {
		return nil, err
	}
	if _, err := m.Maintained(); err != nil {
		return nil, fmt.Errorf("attach write path: %w", err)
	}
	// estocada-serve's flag defaults.
	opts := service.Options{
		QueryTimeout:       5 * time.Second,
		CacheShards:        16,
		SlowQueryThreshold: 250 * time.Millisecond,
		SlowQueryLog:       128,
		Schema:             scenario.LogicalSchema,
	}
	if registry {
		opts.Registry = obs.NewRegistry()
		obs.RegisterProcessMetrics(opts.Registry, time.Now())
	}
	return &deployment{sys: m.Sys, svc: service.New(m.Sys, opts)}, nil
}

// replayCounts are the exact counts of one replay.
type replayCounts struct {
	queries, writes, failed int
	misses, chases          int
	rows                    int64
	perStore                map[string]engine.CounterSnapshot
	fragmentRows            int
	hits                    int
	replans                 uint64
	firstErr                string
	ok                      []bool // per request: it succeeded
}

func (c *replayCounts) fail(i int, err error) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf("request %d: %v", i, err)
	}
}

func (c *replayCounts) addStores(snap map[string]engine.CounterSnapshot) {
	for store, s := range snap {
		t := c.perStore[store]
		t.Requests += s.Requests
		t.Scans += s.Scans
		t.Lookups += s.Lookups
		t.Tuples += s.Tuples
		c.perStore[store] = t
	}
}

func (c *replayCounts) write(d *deployment, r *request, i int, rec *recorder, root int32) {
	c.writes++
	t := rec.now()
	var res *service.WriteResult
	var err error
	if r.kind == kindInsert {
		res, err = d.svc.Insert(context.Background(), r.rel, r.row)
	} else {
		res, err = d.svc.Delete(context.Background(), r.rel, r.row)
	}
	rec.end(spWrite, root, t)
	if err != nil {
		c.fail(i, err)
		return
	}
	c.ok[i] = true
	for _, f := range res.Fragments {
		c.fragmentRows += f.Added + f.Removed
	}
}

// drain consumes an open cursor chunk by chunk, timing the first batch
// and the rest, and keeps the rows of checked reads. Copying the kept
// rows is the benchmark's own work: it is left out of the drain span.
func drain(next func() ([]value.Tuple, error), width int, keep answer, rec *recorder, root int32) (int64, error) {
	var n, glue int64
	t := rec.now()
	chunk, err := next()
	rec.end(spFirstBatch, root, t)
	t = rec.now()
	for ; chunk != nil && err == nil; chunk, err = next() {
		n += int64(len(chunk))
		if keep != nil {
			g := rec.now()
			for _, tup := range chunk {
				keep[rowKey(normTuple(tup[:width]))]++
			}
			glue += rec.now() - g
		}
	}
	rec.end(spDrain, root, t+glue)
	return n, err
}

// layerReplay drives each request through the layers one public call at
// a time: lang.ParseSQL, service.Canonicalize, on a first-seen
// fingerprint rewrite.Rewrite and core.System.Prepare, then
// Prepared.ExecRows, the cursor's batches and Close; writes go through
// service.Insert/Delete. After Prepare (cold, as the service runs it on a
// miss), rewrite.Rewrite repeats the rewriting Prepare ran inside, with
// the same inputs, to time it on its own; warm, it may read slightly
// below the rewriting's share of the cold Prepare.
type layerReplay struct {
	d        *deployment
	reqs     []request
	rec      *recorder
	answers  map[int]answer // filled for checked reads when non-nil
	c        *replayCounts
	prepared map[string]*core.Prepared
	views    []rewrite.View
	patterns map[string]rewrite.AccessPattern
	schema   pivot.Constraints
	replans  uint64
}

func newCounts(n int) *replayCounts {
	return &replayCounts{perStore: map[string]engine.CounterSnapshot{}, ok: make([]bool, n)}
}

func newLayerReplay(d *deployment, reqs []request, rec *recorder, answers map[int]answer) *layerReplay {
	return &layerReplay{
		d: d, reqs: reqs, rec: rec, answers: answers, c: newCounts(len(reqs)),
		prepared: map[string]*core.Prepared{},
		views:    d.sys.Catalog.Views(""),
		patterns: d.sys.Catalog.AccessPatterns(),
		schema:   d.sys.SchemaConstraints(),
		replans:  d.sys.Replans(),
	}
}

func (l *layerReplay) step(i int) {
	r, rec, c := &l.reqs[i], l.rec, l.c
	if r.kind != kindQuery {
		root := rec.open(i, flagWrite)
		c.write(l.d, r, i, rec, root)
		rec.closeSpan(root)
		return
	}
	c.queries++
	root := rec.open(i, 0)
	defer rec.closeSpan(root)
	t := rec.now()
	q, err := lang.ParseSQL(r.sql, scenario.LogicalSchema)
	rec.end(spParse, root, t)
	if err != nil {
		c.fail(i, err)
		return
	}
	t = rec.now()
	fp, err := service.Canonicalize(q)
	rec.end(spCanon, root, t)
	if err != nil {
		c.fail(i, err)
		return
	}
	p, ok := l.prepared[fp.Key]
	if !ok {
		// Known only now: the request span is re-flagged as a miss.
		if root >= 0 {
			rec.buf[root].flag = flagMiss
		}
		c.misses++
		t = rec.now()
		p, err = l.d.sys.Prepare(fp.Query, fp.Params...)
		rec.end(spPrepare, root, t)
		if err == nil {
			var res *rewrite.Result
			t = rec.now()
			res, err = rewrite.Rewrite(fp.Query, l.views, rewrite.Options{
				Schema:             l.schema,
				AccessPatterns:     l.patterns,
				BoundHeadPositions: paramPositions(fp),
			})
			rec.end(spRewrite, root, t)
			if err == nil {
				c.chases += res.Stats.VerificationChases
			}
		}
		if err != nil {
			c.fail(i, err)
			return
		}
		l.prepared[fp.Key] = p
	}
	attr := engine.NewExecCounters()
	t = rec.now()
	rows, err := p.ExecRows(context.Background(), attr, fp.Args...)
	rec.end(spBindOpen, root, t)
	if err != nil {
		c.fail(i, err)
		return
	}
	var keep answer
	if r.check && l.answers != nil {
		keep = answer{}
	}
	n, err := drain(rows.NextChunk, fp.OutWidth, keep, rec, root)
	t = rec.now()
	cerr := rows.Close()
	rec.end(spClose, root, t)
	if err == nil {
		err = cerr
	}
	if err != nil {
		c.fail(i, err)
		return
	}
	c.ok[i] = true
	c.rows += n
	c.addStores(attr.Snapshot())
	if keep != nil {
		l.answers[i] = keep
	}
}

// finish stamps the replay's re-plan count.
func (l *layerReplay) finish() { l.c.replans = l.d.sys.Replans() - l.replans }

// paramPositions is where the canonical query's parameters sit in its
// head — the bound positions core.System.Prepare hands the rewriter.
func paramPositions(fp service.Fingerprint) []int {
	var pos []int
	for _, p := range fp.Params {
		for i, t := range fp.Query.Head.Args {
			if v, ok := t.(pivot.Var); ok && v == p {
				pos = append(pos, i)
				break
			}
		}
	}
	return pos
}

// serviceReplay drives reads through the service's text entry point
// (service.QueryTextRows, the cursor, Rows.Close) and writes through
// service.Insert/Delete.
type serviceReplay struct {
	d    *deployment
	reqs []request
	rec  *recorder
	c    *replayCounts
}

func newServiceReplay(d *deployment, reqs []request, rec *recorder) *serviceReplay {
	return &serviceReplay{d: d, reqs: reqs, rec: rec, c: newCounts(len(reqs))}
}

func (s *serviceReplay) step(i int) {
	r, rec, c := &s.reqs[i], s.rec, s.c
	if r.kind != kindQuery {
		root := rec.open(i, flagWrite)
		c.write(s.d, r, i, rec, root)
		rec.closeSpan(root)
		return
	}
	c.queries++
	root := rec.open(i, 0)
	defer rec.closeSpan(root)
	t := rec.now()
	rows, err := s.d.svc.QueryTextRows(context.Background(), "sql", r.sql)
	rec.end(spOpen, root, t)
	if err != nil {
		c.fail(i, err)
		return
	}
	if rows.CacheHit() {
		c.hits++
	} else if root >= 0 {
		rec.buf[root].flag = flagMiss
	}
	n, err := drain(rows.NextChunk, 0, nil, rec, root)
	t = rec.now()
	cerr := rows.Close()
	rec.end(spSvcClose, root, t)
	if err == nil {
		err = cerr
	}
	if err != nil {
		c.fail(i, err)
		return
	}
	c.ok[i] = true
	c.rows += n
}

// interleave runs two replays of one n-request stream in alternating
// blocks, swapping which goes first every block, so that both see the
// same machine state and a difference between them is the difference
// between the two code paths. It returns the heap allocations (objects,
// bytes) each made, and the bench process's GC share of CPU over both.
func interleave(n int, a, b func(int)) (allocs, bytes [2]uint64, gcFrac float64) {
	const block = 50
	r0 := sampleRuntime()
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		sides := [2]func(int){a, b}
		order := [2]int{0, 1}
		if (lo/block)%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			s0 := sampleMem()
			for i := lo; i < hi; i++ {
				sides[side](i)
			}
			s1 := sampleMem()
			allocs[side] += s1.Mallocs - s0.Mallocs
			bytes[side] += s1.TotalAlloc - s0.TotalAlloc
		}
	}
	r1 := sampleRuntime()
	return allocs, bytes, ratio(r1.gcCPU-r0.gcCPU, r1.allCPU-r0.allCPU)
}

func sampleMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// runtimeSample is the bench process's GC and total CPU time so far.
type runtimeSample struct {
	gcCPU, allCPU float64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// writeSpans writes every replay's spans as tab-separated lines.
func writeSpans(path string, replays map[string]*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "replay\treq\tspan\tparent\tstart_ns\tdur_ns\tflag")
	names := make([]string, 0, len(replays))
	for name := range replays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, s := range replays[name].spans() {
			fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\t%d\n", name, s.req, spanNames[s.name], s.parent, s.start, s.dur, s.flag)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads back one replay's spans from a span file.
func readSpans(path, replay string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byName := map[string]spanName{}
	for i, n := range spanNames {
		byName[n] = spanName(i)
	}
	var out []span
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 7 || f[0] != replay {
			continue
		}
		var nums [5]int64
		for i, k := range []int{1, 3, 4, 5, 6} {
			if nums[i], err = strconv.ParseInt(f[k], 10, 64); err != nil {
				return nil, err
			}
		}
		out = append(out, span{req: int32(nums[0]), name: byName[f[2]], parent: int32(nums[1]), start: nums[2], dur: nums[3], flag: uint8(nums[4])})
	}
	return out, sc.Err()
}

// layerSelf charges each span's self time to its layer: a request span
// keeps what its children do not cover (the benchmark's own glue), and
// core.prepare is split into the rewriting (the duration of the
// standalone rewrite.rewrite call) and translate (the rest). The
// standalone rewrite call itself repeats work Prepare does, so it is
// left out of the total.
func layerSelf(spans []span) (map[string]int64, map[string]int, int64) {
	self := map[string]int64{}
	count := map[string]int{}
	var total int64
	for _, s := range spans {
		name := spanNames[s.name]
		layer := name[:strings.IndexByte(name, '.')]
		if s.name == spPrepare {
			layer = "translate"
		}
		switch s.name {
		case spRequest:
			self[layer] += s.dur
			total += s.dur
		case spRewrite:
			self["rewrite"] += s.dur
			self["translate"] -= s.dur
			self["bench"] -= s.dur
			total -= s.dur
		case spPrepare:
			self["translate"] += s.dur
			self["bench"] -= s.dur
		default:
			self[layer] += s.dur
			self["bench"] -= s.dur
		}
		count[layer]++
	}
	return self, count, total
}

func printLayerTable(w io.Writer, title string, spans []span) {
	self, count, total := layerSelf(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "%s (self time from %d spans, total %.1f ms)\n", title, len(spans), float64(total)/1e6)
	fmt.Fprintf(w, "  %-10s %10s %7s %7s\n", "layer", "self_ms", "share", "spans")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "  %-10s %10.2f %6.1f%% %7d\n", l, float64(self[l])/1e6, share, count[l])
	}
}

// spanCost times the recorder itself: nanoseconds per recorded child span.
func spanCost() float64 {
	const n = 1 << 16
	r := newRecorder(true, n+1)
	root := r.open(0, 0)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(spParse, root, r.now())
	}
	return float64(time.Since(start)) / n
}

// requestDiffs pairs the read request spans of two replays of one stream
// and returns, for each read timed in both, how much longer it took in a
// than in b (ns), and b's times.
func requestDiffs(a, b []span) (diffs, base []float64) {
	bt := map[int32]int64{}
	for _, s := range b {
		if s.name == spRequest {
			bt[s.req] = s.dur
		}
	}
	for _, s := range a {
		if d, ok := bt[s.req]; ok && s.name == spRequest && s.flag&flagWrite == 0 {
			diffs = append(diffs, float64(s.dur-d))
			base = append(base, float64(d))
		}
	}
	return diffs, base
}

// durations collects the durations (ns) of the spans with this name whose
// flags match want under mask.
func durations(spans []span, name spanName, mask, want uint8) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name && s.flag&mask == want {
			out = append(out, float64(s.dur))
		}
	}
	return out
}
