package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/histtest/client"
)

// setupRepeats is how many times a run sets histd up from exec; setup_s
// is their median and the last one serves the timed phase.
const setupRepeats = 5

// phaseTimeout bounds one timed phase, so a stalled server cannot hold
// the benchmark past its own deadline.
const phaseTimeout = 120 * time.Second

// outcome is the client-side record of one request of the timed phase.
type outcome struct {
	req        *request
	status     int
	err        error
	send, done time.Time
	latency    time.Duration // done − send, or done − due for open loop
	late       time.Duration // open loop: send − due
	body       []byte        // verdict-bearing 2xx bodies only

	verdict   bool // a 2xx test, closeness or retest answer
	accept    bool
	samples   int64
	elapsedMS int64
	trace     *client.Trace
}

// ok reports a 2xx answer (status 0 means a transport error).
func (o *outcome) ok() bool { return o.status/100 == 2 }

// phase is one set-up plus timed phase against a fresh histd.
type phase struct {
	setups  []float64 // seconds, one per set-up repeat
	outs    []*outcome
	start   time.Time
	wall    time.Duration
	cpuMS   float64
	rssMB   float64
	vars    map[string]int64
	streams []client.StreamInfo // stream workload: state after the phase
}

// execute sets histd up setupRepeats times and runs the plan's timed
// phase against the last set-up. traceJSON enables histd's stage-event
// sink for that last server.
func execute(p *plan, bin, traceJSON string) (*phase, error) {
	ph := &phase{}
	for i := 0; i < setupRepeats; i++ {
		last := i == setupRepeats-1
		tj := ""
		if last {
			tj = traceJSON
		}
		if err := ph.setUp(p, bin, tj, last); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// setUp starts histd and sets it up, timing both, then runs the timed
// phase against it when timed is set. histd is stopped on every path,
// a panic included.
func (ph *phase) setUp(p *plan, bin, traceJSON string, timed bool) error {
	t0 := time.Now()
	h, err := startHistd(bin, traceJSON)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			h.kill()
		}
	}()
	if err := h.waitHealthy(); err != nil {
		return err
	}
	ids, err := p.setup(h)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	ph.setups = append(ph.setups, time.Since(t0).Seconds())
	if timed {
		err = ph.timed(h, p, ids)
	}
	stopped = true
	if serr := h.stop(); err == nil {
		err = serr
	}
	return err
}

// timed runs the plan's requests and samples the server's resource use
// around them.
func (ph *phase) timed(h *histd, p *plan, ids []string) error {
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	cpu0, err := h.cpuTicks()
	if err != nil {
		return err
	}
	ph.start = time.Now()
	if len(p.closed) > 0 {
		ph.outs = runClosed(ctx, h, p.closed)
	} else {
		ph.outs = runStream(ctx, h, p, ids, ph.start)
	}
	ph.wall = time.Since(ph.start)
	cpu1, err := h.cpuTicks()
	if err != nil {
		return err
	}
	ph.cpuMS = float64(cpu1-cpu0) * 1000 / clockTick
	if ph.rssMB, err = h.peakRSSMB(); err != nil {
		return err
	}
	if ph.vars, err = h.debugVars(); err != nil {
		return err
	}
	for _, id := range ids {
		var info client.StreamInfo
		code, body, err := h.do(ctx, http.MethodGet, "/v1/streams/"+id, "", nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("reading stream %s after the phase: %v (status %d)", id, err, code)
		}
		if err := json.Unmarshal(body, &info); err != nil {
			return err
		}
		ph.streams = append(ph.streams, info)
	}
	return nil
}

// runClosed sends reqs in order over two closed-loop connections: each
// connection takes the next unsent request as soon as its previous one
// has been answered.
func runClosed(ctx context.Context, h *histd, reqs []*request) []*outcome {
	outs := make([]*outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				outs[i] = send(ctx, h, reqs[i], reqs[i].path, time.Time{})
			}
		}()
	}
	wg.Wait()
	return outs
}

// runStream runs the stream workload: one connection ingests its fixed
// batch sequence closed loop while a second sends retests on their fixed
// schedule (open loop), each timed from its due time, for as long as
// the ingest lasts. The phase ends with the ingest; a retest already
// sent is still waited for.
func runStream(ctx context.Context, h *histd, p *plan, ids []string, start time.Time) []*outcome {
	ingest := make([]*outcome, len(p.ingest))
	var retests []*outcome
	path := func(r *request) string { return strings.Replace(r.path, "{id}", ids[r.stream], 1) }
	ingestDone := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(ingestDone)
		for i, r := range p.ingest {
			ingest[i] = send(ctx, h, r, path(r), time.Time{})
		}
	}()
	go func() {
		defer wg.Done()
		for _, r := range p.retests {
			due := start.Add(r.due)
			select {
			case <-time.After(time.Until(due)):
			case <-ingestDone:
				return
			}
			retests = append(retests, send(ctx, h, r, path(r), due))
		}
	}()
	wg.Wait()
	return append(ingest, retests...)
}

// send issues one request and parses its answer. A non-zero due makes it
// an open-loop request timed from its schedule.
func send(ctx context.Context, h *histd, r *request, path string, due time.Time) *outcome {
	o := &outcome{req: r, send: time.Now()}
	o.status, o.body, o.err = h.do(ctx, http.MethodPost, path, r.ctype, r.body)
	o.done = time.Now()
	o.latency = o.done.Sub(o.send)
	if !due.IsZero() {
		o.latency = o.done.Sub(due)
		o.late = o.send.Sub(due)
	}
	if !o.ok() {
		return o
	}
	switch r.kind {
	case kindTest:
		var res client.TestResult
		o.err = json.Unmarshal(o.body, &res)
		o.verdict, o.accept, o.samples, o.elapsedMS, o.trace = true, res.Accept, res.SamplesUsed, res.ElapsedMS, res.Trace
	case kindRetest:
		var res client.StreamTestResponse
		o.err = json.Unmarshal(o.body, &res)
		o.verdict, o.accept, o.samples, o.elapsedMS, o.trace = true, res.Accept, res.SamplesUsed, res.ElapsedMS, res.Trace
	case kindClose:
		var res client.ClosenessResponse
		o.err = json.Unmarshal(o.body, &res)
		o.verdict, o.accept, o.samples, o.elapsedMS = true, res.Accept, res.SamplesA+res.SamplesB, res.ElapsedMS
	case kindIngest:
		var res client.IngestResponse
		if o.err = json.Unmarshal(o.body, &res); o.err == nil && res.Events != r.events {
			o.err = fmt.Errorf("ingest acknowledged %d of %d events", res.Events, r.events)
		}
		o.body = nil
	case kindRegister:
		o.body = nil
	}
	if o.err != nil {
		o.verdict = false
	}
	return o
}
