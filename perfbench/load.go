package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what the load generator observed for one request. Times are
// nanoseconds since the generator's epoch.
type outcome struct {
	due, sent, first, end int64
	done                  bool // a response was fully received
	err                   string
	body                  []byte // kept for checked reads and write acknowledgements
	// planUs and execUs are the server's own report of the query (parsed
	// only when the generator keeps reports).
	planUs, execUs int64
}

func (o *outcome) ok() bool { return o.done && o.err == "" }

// loadgen sends a request stream to estocada-serve over at most conns
// keep-alive connections.
type loadgen struct {
	client  *http.Client
	base    string
	reqs    []request
	out     []outcome
	fin     []chan struct{} // closed when request i finished; nil without dependencies
	epoch   time.Time
	reports bool // parse the per-query report (planTimeUs, execTimeUs)
}

func newLoadgen(base string, reqs []request, conns int) *loadgen {
	d := &loadgen{
		client: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
			Timeout: 30 * time.Second,
		},
		base:  base,
		reqs:  reqs,
		out:   make([]outcome, len(reqs)),
		epoch: time.Now(),
	}
	for _, r := range reqs {
		if r.dep >= 0 {
			d.fin = make([]chan struct{}, len(reqs))
			for i := range d.fin {
				d.fin[i] = make(chan struct{})
			}
			break
		}
	}
	return d
}

func (d *loadgen) now() int64 { return int64(time.Since(d.epoch)) }

func (d *loadgen) close() { d.client.CloseIdleConnections() }

// waitDep blocks until request i's dependency has finished.
func (d *loadgen) waitDep(i int) {
	if dep := d.reqs[i].dep; dep >= 0 {
		<-d.fin[dep]
	}
}

func (d *loadgen) finish(i int) {
	if d.fin != nil {
		close(d.fin[i])
	}
}

// do sends request i and reads its response to the last byte (for NDJSON,
// to the terminal record), stamping first-row and end times.
func (d *loadgen) do(i int) {
	r, o := &d.reqs[i], &d.out[i]
	defer func() { o.end = d.now() }()
	hreq, err := http.NewRequest(http.MethodPost, d.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err.Error()
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(hreq)
	if err != nil {
		o.err = err.Error()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		o.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	if !r.stream {
		o.first = d.now()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			o.err = err.Error()
			return
		}
		o.done = true
		if r.kind != kindQuery || r.check {
			o.body = body
		}
		if d.reports && r.kind == kindQuery {
			var rep struct {
				Report report `json:"report"`
			}
			if err := json.Unmarshal(body, &rep); err != nil {
				o.err = "bad report: " + err.Error()
				return
			}
			o.planUs, o.execUs = rep.Report.PlanTimeUs, rep.Report.ExecTimeUs
		}
		return
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var keep bytes.Buffer
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// An oversized record: gather it whole.
			rest, err2 := br.ReadBytes('\n')
			line, err = append(append([]byte(nil), line...), rest...), err2
		}
		switch {
		case bytes.HasPrefix(line, []byte(`{"row"`)):
			if o.first == 0 {
				o.first = d.now()
			}
			if r.check {
				keep.Write(line)
			}
		case bytes.HasPrefix(line, []byte(`{"done"`)):
			o.done = true
			o.body = keep.Bytes()
			if d.reports {
				var rec struct {
					Report report `json:"report"`
				}
				if err := json.Unmarshal(line, &rec); err != nil {
					o.err = "bad report: " + err.Error()
					return
				}
				o.planUs, o.execUs = rec.Report.PlanTimeUs, rec.Report.ExecTimeUs
			}
			return
		case bytes.HasPrefix(line, []byte(`{"error"`)):
			o.err = "in-band " + string(bytes.TrimSpace(line))
			return
		}
		if err != nil {
			o.err = "stream ended without a done record: " + err.Error()
			return
		}
	}
}

type report struct {
	PlanTimeUs int64 `json:"planTimeUs"`
	ExecTimeUs int64 `json:"execTimeUs"`
}

// openPhase is the result of one fixed-rate phase.
type openPhase struct {
	elapsed time.Duration
	// backlogMid and backlogEnd count requests due but not yet sent at the
	// middle and at the end of the schedule.
	backlogMid, backlogEnd int
}

// openLoop sends reqs[from:from+n] on a fixed schedule of rate per second,
// each request timed from its due time whatever the generator's lag, over
// conns workers. A request waits for a free connection (and its
// dependency) before it is sent; that wait is the generator's lag. At the
// due time of the first request of each of the schedule's windows (see
// window), before sending it, openLoop calls mark.
func (d *loadgen) openLoop(from, n int, rate float64, conns int, mark func()) openPhase {
	interval := float64(time.Second) / rate
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				d.out[i].sent = d.now()
				d.do(i)
				d.finish(i)
			}
		}()
	}
	start := d.now()
	for k := 0; k < n; k++ {
		i := from + k
		due := start + int64(float64(k)*interval)
		if wait := due - d.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if k == 0 || window(k, n) != window(k-1, n) {
			mark()
		}
		d.waitDep(i)
		d.out[i].due = due
		work <- i
	}
	close(work)
	wg.Wait()
	p := openPhase{elapsed: time.Duration(d.now() - start)}
	span := int64(float64(n) * interval)
	p.backlogMid = d.backlog(from, n, start+span/2)
	p.backlogEnd = d.backlog(from, n, start+span)
	return p
}

// windows is how many equal slices of its schedule an open-loop phase is
// cut into. The latency and CPU metrics are medians (CPU: interquartile
// means) over the windows, so that a stall of the host, such as CPU stolen
// by the hypervisor, in a few of them does not decide a run's figures.
const windows = 9

// window is the window of the k-th of an open-loop phase's n requests.
func window(k, n int) int { return k * windows / n }

// backlog counts the phase's requests due by t but not sent by t.
func (d *loadgen) backlog(from, n int, t int64) int {
	b := 0
	for i := from; i < from+n; i++ {
		if o := &d.out[i]; o.due <= t && o.sent > t {
			b++
		}
	}
	return b
}

// closedPhase is the result of one back-to-back phase.
type closedPhase struct {
	from, n     int
	start, last int64 // phase start; the last request's end
}

// closedLoop sends requests from reqs[from:] back to back over conns
// workers until dur has passed or the stream runs out.
func (d *loadgen) closedLoop(from int, dur time.Duration, conns int) closedPhase {
	var next atomic.Int64
	next.Store(int64(from))
	start := d.now()
	deadline := start + int64(dur)
	var last atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d.now() < deadline {
				i := int(next.Add(1) - 1)
				if i >= len(d.reqs) {
					return
				}
				d.waitDep(i)
				o := &d.out[i]
				o.due = d.now()
				o.sent = o.due
				d.do(i)
				d.finish(i)
				for end := o.end; ; {
					l := last.Load()
					if end <= l || last.CompareAndSwap(l, end) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	return closedPhase{from: from, n: min(int(next.Load()), len(d.reqs)) - from, start: start, last: last.Load()}
}

// capacity is the phase's completion rate per second: the median over
// half-second windows, so that a short stall of the host does not decide
// it (the whole phase's mean when it is shorter than two windows).
func (d *loadgen) capacity(p closedPhase) float64 {
	const window = int64(500 * time.Millisecond)
	elapsed := p.last - p.start
	w := int(elapsed / window)
	if w < 2 {
		return float64(p.n) / time.Duration(elapsed).Seconds()
	}
	counts := make([]float64, w)
	for i := p.from; i < p.from+p.n; i++ {
		if k := int((d.out[i].end - p.start) / window); k < w {
			counts[k]++
		}
	}
	return median(counts) * float64(time.Second) / float64(window)
}
