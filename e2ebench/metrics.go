package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// metrics is an ordered metric set.
type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name, value, unit})
}

// tally is what a phase's outcomes add up to, before any judgement of
// speed: counts, failures and ground-truth agreement.
type tally struct {
	attempted, failed int
	byStatus          map[int]int
	decisions         int
	wrong             int // verdicts disagreeing with certified ground truth
	wrongDefect       int // of which on the documented ADK defect
	wrongDetail       []string
	failDetail        []string
	completed         int
	ackedEvents       int64
}

func tallyOf(outs []*outcome) tally {
	t := tally{byStatus: map[int]int{}}
	for _, o := range outs {
		t.attempted++
		switch {
		case o.err != nil && o.status == 0:
			t.failed++
			t.failDetail = append(t.failDetail, fmt.Sprintf("request %d (%s): %v", o.req.id, o.req.class, o.err))
			continue
		case !o.ok():
			t.byStatus[o.status]++
			t.failed++
			t.failDetail = append(t.failDetail, fmt.Sprintf("request %d (%s): status %d: %s", o.req.id, o.req.class, o.status, o.body))
			continue
		case o.err != nil: // 2xx whose body did not check out
			t.failed++
			t.failDetail = append(t.failDetail, fmt.Sprintf("request %d (%s): %v", o.req.id, o.req.class, o.err))
			continue
		}
		t.completed++
		if o.req.kind == kindIngest {
			t.ackedEvents += o.req.events
		}
		if !o.verdict {
			continue
		}
		t.decisions++
		if o.req.expect == expectNone || o.accept == (o.req.expect == expectAccept) {
			continue
		}
		t.wrong++
		if o.req.defect {
			t.wrongDefect++
		} else {
			t.wrongDetail = append(t.wrongDetail, fmt.Sprintf("request %d (%s) answered accept=%v", o.req.id, o.req.class, o.accept))
		}
	}
	return t
}

// latencies returns every request's latency in ms; a failed request
// counts as missing any limit (+Inf).
func latencies(outs []*outcome, keep func(*outcome) bool) []float64 {
	var xs []float64
	for _, o := range outs {
		if keep != nil && !keep(o) {
			continue
		}
		if !o.ok() || o.err != nil {
			xs = append(xs, math.Inf(1))
			continue
		}
		xs = append(xs, ms(o.latency.Seconds()))
	}
	return xs
}

func ms(seconds float64) float64 { return seconds * 1000 }

// finite caps an infinite percentile (failures reached it) at the phase
// wall time, the most any request of the phase could have waited.
func finite(x, wallMS float64) float64 {
	if math.IsInf(x, 1) {
		return wallMS
	}
	return x
}

// endToEnd computes the user-visible metrics of one untraced phase. The
// first set is the BENCHMARK.json end_to_end list; extra holds the
// metrics that are zero or undefined on some workload and so are only
// printed.
func endToEnd(ph *phase, t tally) (e2e, extra metrics) {
	wallMS := ms(ph.wall.Seconds())
	e2e.add("setup_s", median(ph.setups), "s")
	e2e.add("decisions_per_s", float64(t.decisions)/ph.wall.Seconds(), "1/s")
	lat := latencies(ph.outs, nil)
	e2e.add("latency_p50_ms", finite(median(lat), wallMS), "ms")
	tv, tpct, _ := tail(lat)
	e2e.add("latency_tail_ms", finite(tv, wallMS), "ms")
	var samples []float64
	for _, o := range ph.outs {
		if o.verdict {
			samples = append(samples, float64(o.samples))
		}
	}
	e2e.add("samples_per_decision", mean(samples), "count")
	e2e.add("peak_rss_mb", ph.rssMB, "MB")
	e2e.add("server_cpu_ms_per_op", ph.cpuMS/float64(max(1, t.completed)), "ms")

	extra.add("latency_tail_pct", tpct, "%")
	extra.add("latency_samples", float64(len(lat)), "count")
	extra.add("wrong_verdicts", float64(t.wrong), "count")
	extra.add("wrong_verdicts_known_defect", float64(t.wrongDefect), "count")
	extra.add("failed_ratio", float64(t.failed)/float64(max(1, t.attempted)), "ratio")
	extra.add("ingest_events_per_s", float64(t.ackedEvents)/ingestSeconds(ph), "events/s")
	retest := func(o *outcome) bool { return o.req.kind == kindRetest }
	rl := latencies(ph.outs, retest)
	lateMax := 0.0
	for _, o := range ph.outs {
		if retest(o) {
			lateMax = math.Max(lateMax, ms(o.late.Seconds()))
		}
	}
	if len(rl) > 0 {
		extra.add("retest_latency_p50_ms", finite(median(rl), wallMS), "ms")
		rt, rpct, ok := tail(rl)
		if !ok || rpct < 90 { // too few retests for a tail: report the maximum
			rt, rpct = maxOf(rl), 100
		}
		extra.add("retest_latency_tail_ms", finite(rt, wallMS), "ms")
		extra.add("retest_latency_tail_pct", rpct, "%")
		extra.add("retest_lateness_ms_max", lateMax, "ms")
	}
	// Per request class: client latency against histd's own run time,
	// which shows where a class's round trip goes.
	var classes []string
	byClass := map[string][]*outcome{}
	for _, o := range ph.outs {
		if byClass[o.req.class] == nil {
			classes = append(classes, o.req.class)
		}
		byClass[o.req.class] = append(byClass[o.req.class], o)
	}
	sort.Strings(classes)
	for _, c := range classes {
		outs := byClass[c]
		extra.add("class."+c+".p50_ms", finite(median(latencies(outs, nil)), wallMS), "ms")
		if outs[0].req.kind == kindTest || outs[0].req.kind == kindClose || outs[0].req.kind == kindRetest {
			var el []float64
			for _, o := range outs {
				if o.verdict {
					el = append(el, float64(o.elapsedMS))
				}
			}
			extra.add("class."+c+".server_ms_mean", mean(el), "ms")
		}
	}
	return e2e, extra
}

// ingestSeconds is how long the phase's ingest connection was busy:
// phase start to the last acknowledged batch.
func ingestSeconds(ph *phase) float64 {
	var end time.Time
	for _, o := range ph.outs {
		if o.req.kind == kindIngest && o.done.After(end) {
			end = o.done
		}
	}
	if end.IsZero() {
		return ph.wall.Seconds()
	}
	return end.Sub(ph.start).Seconds()
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// consistency checks what the server's own counters and stream state
// say against the client's record: every 429 the client saw must be a
// counted admission or ingest rejection, and every acknowledged event
// must be in its stream.
func consistency(ph *phase, t tally) []string {
	var bad []string
	got429 := int64(t.byStatus[http.StatusTooManyRequests])
	if srv := ph.vars["histd.requests_overloaded"] + ph.vars["histd.ingest_rejected"]; srv != got429 {
		bad = append(bad, fmt.Sprintf("client saw %d × 429, histd counted %d overload/ingest rejections", got429, srv))
	}
	if len(ph.streams) == numStreams {
		acked := make([]int64, numStreams)
		for _, o := range ph.outs {
			if o.req.kind == kindIngest && o.ok() && o.err == nil {
				acked[o.req.stream] += o.req.events
			}
		}
		prefill := int64(prefillBatches * batchEvents)
		want := []int64{prefill + acked[streamLive], acked[streamBulk], prefill}
		for i, info := range ph.streams {
			if info.TotalEvents != want[i] {
				bad = append(bad, fmt.Sprintf("stream %d holds %d events in total, want %d", i, info.TotalEvents, want[i]))
			}
		}
	}
	return bad
}

// gateSummary is what the served-vs-direct gate found in a phase.
type gateSummary struct {
	mismatches        []string
	servedMinusDirect []float64
	checked           int
}

// runGate runs the served-vs-direct gate over a phase: each distinct
// gate case is replayed once and compared with every served answer that
// carries it. It returns the mismatches and, per served answer, the
// served round trip minus the direct call's duration (ms).
func runGate(outs []*outcome) gateSummary {
	var gs gateSummary
	type group struct {
		g    *gateCase
		outs []*outcome
	}
	var order []*gateCase
	groups := map[*gateCase]*group{}
	for _, o := range outs {
		g := o.req.gate
		if g == nil || !o.ok() || o.err != nil {
			continue
		}
		if groups[g] == nil {
			groups[g] = &group{g: g}
			order = append(order, g)
		}
		groups[g].outs = append(groups[g].outs, o)
	}
	// Replays run two at a time, as histd's two workers served them.
	type replay struct {
		v    any
		err  error
		took time.Duration
	}
	replays := make([]replay, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(order); i = int(next.Add(1) - 1) {
				t0 := time.Now()
				v, err := order[i].direct()
				replays[i] = replay{v, err, time.Since(t0)}
			}
		}()
	}
	wg.Wait()
	for i, g := range order {
		gr := groups[g]
		direct, derr, took := replays[i].v, replays[i].err, replays[i].took
		for _, o := range gr.outs {
			gs.checked++
			err := derr
			if err == nil {
				err = compareVerdict(o.req.kind, o.body, direct)
			}
			if err != nil {
				gs.mismatches = append(gs.mismatches, fmt.Sprintf("request %d (%s): %v", o.req.id, o.req.class, err))
				continue
			}
			gs.servedMinusDirect = append(gs.servedMinusDirect, ms((o.done.Sub(o.send) - took).Seconds()))
		}
	}
	sort.Strings(gs.mismatches)
	return gs
}
