package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"time"

	"repro/histtest/client"
	"repro/internal/benchhot"
	"repro/internal/chisq"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/histdp"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stream"
)

// The per-layer harness. Every number here is measured from outside the
// program: either by timing direct calls into a layer's public
// functions on the workloads' inputs and seeds, or by reading what histd
// already exports (its -trace-json stage events, /debug/vars, and the
// verdicts it answers). Nothing is added inside the program.

// timer runs f reps times, recording each call as a span, and returns
// the per-call durations in ms.
func (d *directSuite) timer(name string, reps int, f func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		f()
		t1 := time.Now()
		d.spans.add(d.root, name, -1, t0, t1)
		out[i] = ms(t1.Sub(t0).Seconds())
	}
	return out
}

// directSuite holds the inputs of the direct layer calls. They are the
// same for every workload (seeded from the workload seed), so every
// per-layer metric is measured on every workload.
type directSuite struct {
	seed  uint64
	spans *spanLog
	root  int

	eight *oracle.Sampler // the verdict workload's n=10⁵ 8-histogram
	quad  *oracle.Sampler // the dataset and stream workloads' 4-histogram
	m     metrics
}

func (d *directSuite) coreLayer() (*core.Result, error) {
	const k, eps = 8, 0.8
	var adkRes *core.Result
	for _, e := range []string{"adk", "cdkl22"} {
		for _, cs := range []string{"exact", "closed-form"} {
			cfg, err := servedCfg(e, cs)
			if err != nil {
				return nil, err
			}
			reps := 5
			if e == "adk" && cs == "exact" {
				reps = 3
			}
			arena := core.NewArena()
			var runErr error
			i := uint64(0)
			t := d.timer("core.run."+e+"."+csName(cs), reps, func() {
				i++
				res, err := arena.TestContext(context.Background(), d.eight.Fork(rng.New(mix(d.seed, 0xc0, i))), rng.New(mix(d.seed, 0xc1, i)), k, eps, cfg)
				if err != nil {
					runErr = err
				}
				if adkRes == nil && e == "adk" && res != nil && res.Learned != nil {
					adkRes = res
				}
			})
			if runErr != nil {
				return nil, runErr
			}
			d.m.add("core.run_ms_p50."+e+"."+csName(cs), median(t), "ms")
		}
	}
	return adkRes, nil
}

// recorded runs one direct tester call per engine with an obs recorder
// attached: the stage-event fallback for an engine the workload does
// not serve.
func (d *directSuite) recorded(engine string) ([]*runRec, error) {
	cfg, err := servedCfg(engine, "exact")
	if err != nil {
		return nil, err
	}
	rec := obs.NewTraceRecorder()
	cfg.Observer = rec
	var runErr error
	d.timer("core.recorded."+engine, 1, func() {
		_, runErr = core.NewArena().TestContext(context.Background(), d.eight.Fork(rng.New(mix(d.seed, 0xc2))), rng.New(mix(d.seed, 0xc3)), 8, 0.8, cfg)
	})
	return recordsOf(rec.Events()), runErr
}

func (d *directSuite) oracleLayer() {
	const batchMean = 2e6
	for _, cs := range []oracle.CountStrategy{oracle.CountExact, oracle.CountClosedForm} {
		o := d.eight.Fork(rng.New(mix(d.seed, 0x0a)))
		r := rng.New(mix(d.seed, 0x0b))
		reps := 3
		if cs == oracle.CountClosedForm {
			reps = 20
		}
		var drawn float64
		t := d.timer("oracle.draw_counts."+csName(cs.String()), reps, func() {
			c := oracle.DrawCountsWith(o, r, batchMean, cs)
			drawn += float64(c.Total())
			c.Release()
		})
		d.m.add("oracle.draw_ns_per_sample."+csName(cs.String()), sum(t)*1e6/drawn, "ns")
	}
	const m = 1_000_000
	o := d.eight.Fork(rng.New(mix(d.seed, 0x0c)))
	t := d.timer("oracle.draw_n_counts", 3, func() { oracle.DrawNCounts(o, m).Release() })
	d.m.add("oracle.drawn_ns_per_sample", sum(t)*1e6/(3*m), "ns")

	// Replay on the stream workload's shape: a window of n=1000 counts.
	src := oracle.DrawCounts(d.quad.Fork(rng.New(mix(d.seed, 0x0d))), rng.New(mix(d.seed, 0x0e)), 2*m)
	defer src.Release()
	t = d.timer("oracle.counts_replay", 3, func() {
		rp := oracle.NewCountsReplay(src, rng.New(mix(d.seed, 0x0f)))
		for i := 0; i < m; i++ {
			rp.Draw()
		}
	})
	d.m.add("oracle.replay_ns_per_sample", sum(t)*1e6/(3*m), "ns")
}

// testerInternals times the learn → check → test building blocks on
// the hypothesis a direct adk run learned.
func (d *directSuite) testerInternals(res *core.Result) error {
	const n, k, eps = 100_000, 8, 0.8
	cfg := core.PracticalConfig()
	learned, g := res.Learned, res.Domain
	p := learned.Partition()
	alpha := cfg.Alpha(eps)
	mSieve := cfg.SieveMFactor * math.Sqrt(n) / (alpha * alpha)
	tau := cfg.Chi.TruncFactor * eps / n
	counts := oracle.DrawCounts(d.eight.Fork(rng.New(mix(d.seed, 0x1a))), rng.New(mix(d.seed, 0x1b)), mSieve)
	defer counts.Release()
	var dst []float64
	const zReps = 50
	t := d.timer("chisq.z_per_interval", zReps, func() {
		dst = chisq.ZPerIntervalInto(dst[:0], counts, learned, p, g, mSieve, tau)
	})
	d.m.add("chisq.z_ns_per_interval", sum(t)*1e6/float64(zReps*p.Count()), "ns")

	var projErr error
	t = d.timer("histdp.project_tv", 7, func() {
		_, projErr = histdp.ProjectTV(learned, k, g)
	})
	d.m.add("histdp.project_ms_p50", median(t), "ms")
	return projErr
}

func (d *directSuite) closenessLayer() error {
	quad := &client.HistogramSpec{N: dsN, Cuts: quadCuts, Masses: quadMasses}
	side := closeSideSize()
	a := draw(d.quad, mix(d.seed, 0x5a3e, 1), side)
	b := draw(d.quad, mix(d.seed, 0x5a3e, 2), side)
	cfg := closeness.DefaultConfig()
	cfg.Workers = 1
	tester := closeness.NewTester()
	var intervals, samples []float64
	var runErr error
	for _, kind := range []string{"spec", "sampler", "samples"} {
		i := uint64(0)
		t := d.timer("closeness.run."+kind, 5, func() {
			i++
			s := mix(d.seed, 0xc105e, i)
			var ox, oy oracle.Oracle
			switch kind {
			case "samples":
				ox, _ = oracle.NewReplay(dsN, a)
				oy, _ = oracle.NewReplay(dsN, b)
			case "spec":
				proto, err := samplerOf(quad) // resolution is part of a spec side
				if err != nil {
					runErr = err
					return
				}
				ox, oy = proto.Fork(rng.New(s+50)), proto.Fork(rng.New((s+50)^closenessSamplerSaltB))
			default:
				ox, oy = d.quad.Fork(rng.New(s+50)), d.quad.Fork(rng.New((s+50)^closenessSamplerSaltB))
			}
			out, err := tester.Run(context.Background(), ox, oy, rng.New(s), dsK, closeEps, cfg)
			if err != nil {
				runErr = err
				return
			}
			intervals = append(intervals, float64(out.Intervals))
			samples = append(samples, float64(out.SamplesX+out.SamplesY))
		})
		d.m.add("closeness.run_ms_p50."+kind, median(t), "ms")
	}
	d.m.add("closeness.reduced_intervals_mean", mean(intervals), "count")
	d.m.add("closeness.samples_per_decision", mean(samples), "count")
	return runErr
}

// streamLayer times ingest decode → tally, snapshot, replay build and
// the retest's tester run on the stream workload's batch shape.
func (d *directSuite) streamLayer() (nsPerEvent float64, err error) {
	var bins, nds [][]byte
	for _, b := range liveBatches(d.quad, d.seed) {
		if b.ctype == "application/octet-stream" {
			bins = append(bins, b.body)
		} else {
			nds = append(nds, b.body)
		}
	}
	acc, err := stream.NewAccumulator(stream.AccumConfig{N: dsN})
	if err != nil {
		return 0, err
	}
	var rates []float64
	for _, f := range []struct {
		name   string
		bodies [][]byte
		decode func([]byte) (int64, error)
	}{
		{"binary", bins, func(b []byte) (int64, error) { return stream.DecodeBinary(bytes.NewReader(b), dsN, 0, acc.Ingest) }},
		{"ndjson", nds, func(b []byte) (int64, error) { return stream.DecodeNDJSON(bytes.NewReader(b), dsN, acc.Ingest) }},
	} {
		const reps = livePool / 2
		var decErr error
		i := 0
		t := d.timer("stream.ingest_direct."+f.name, reps, func() {
			if _, err := f.decode(f.bodies[i%len(f.bodies)]); err != nil {
				decErr = err
			}
			i++
		})
		if decErr != nil {
			return 0, decErr
		}
		rate := reps * batchEvents / (sum(t) / 1000)
		rates = append(rates, rate)
		d.m.add("stream.ingest_direct_events_per_s."+f.name, rate, "events/s")
	}
	nsPerEvent = 1e9 / mean(rates)

	var counts *oracle.Counts
	t := d.timer("stream.snapshot", 7, func() {
		if counts != nil {
			counts.Release()
		}
		counts, _ = acc.Snapshot()
	})
	d.m.add("stream.snapshot_ms_p50", median(t), "ms")
	defer counts.Release()
	i := uint64(0)
	t = d.timer("stream.replay_build", 7, func() {
		i++
		oracle.NewCountsReplay(counts, rng.New(mix(d.seed, 0x2e, i)^streamShuffleSalt))
	})
	d.m.add("stream.replay_build_ms_p50", median(t), "ms")
	cfg, _ := servedCfg("", "")
	arena := core.NewArena()
	var runErr error
	t = d.timer("stream.retest_run", 3, func() {
		i++
		s := mix(d.seed, 0x2e, i)
		o := oracle.NewCountsReplay(counts, rng.New(s^streamShuffleSalt))
		_, runErr = arena.TestContext(context.Background(), o, rng.New(s), streamK, streamEps, cfg)
	})
	d.m.add("stream.retest_run_ms_p50", median(t), "ms")
	return nsPerEvent, runErr
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// perLayer assembles the per-layer metric set of a traced run: traffic
// metrics from the traced phase and histd's stage events, then the
// direct layer calls.
func perLayer(p *plan, ph, untraced *phase, gs gateSummary, histdTrace string, seed uint64, spansPath string) (m, extra metrics, err error) {
	runs, err := parseHistdTrace(histdTrace)
	if err != nil {
		return nil, nil, err
	}
	byEngine, joined, unjoined := joinRuns(runs, ph.outs)
	sl := &spanLog{origin: ph.start}
	sl.requestSpans(ph.outs, joined)

	quadProto, err := samplerOf(&client.HistogramSpec{N: dsN, Cuts: quadCuts, Masses: quadMasses})
	if err != nil {
		return nil, nil, err
	}
	d := &directSuite{seed: seed, spans: sl, eight: oracle.NewSampler(benchhot.EightHistogram(100_000), rng.New(0)), quad: quadProto}
	suiteStart := time.Now()
	d.root = sl.add(0, "direct-suite", -1, suiteStart, suiteStart)

	// internal/serve: traffic side.
	var overhead, sieveRounds, kParts []float64
	var reqBytes float64
	all := append(append(append([]*request{}, p.closed...), p.ingest...), p.retests...)
	for _, r := range all {
		reqBytes += float64(len(r.body))
	}
	for _, o := range ph.outs {
		if o.verdict {
			overhead = append(overhead, ms(o.done.Sub(o.send).Seconds())-float64(o.elapsedMS))
			if o.trace != nil {
				kParts = append(kParts, float64(o.trace.K))
				if o.req.engine == "adk" {
					sieveRounds = append(sieveRounds, float64(o.trace.SieveRoundsRun))
				}
			}
		}
	}
	m.add("serve.overhead_ms_p50", median(overhead), "ms")
	m.add("serve.decode_ms_per_mb", decodeMsPerMB(d, all), "ms/MB")
	m.add("serve.request_mb_mean", reqBytes/float64(len(all))/1e6, "MB")
	m.add("serve.resolve_replay_ms_p50", d.resolveReplay(), "ms")
	m.add("serve.resolve_sampler_ms_p50", d.resolveSampler(), "ms")
	t := tallyOf(ph.outs)
	m.add("serve.rejected_429", float64(t.byStatus[429]), "count")
	m.add("serve.rejected_503", float64(t.byStatus[503]), "count")

	// internal/core.
	adkRes, err := d.coreLayer()
	if err != nil {
		return nil, nil, err
	}
	for _, e := range []string{"adk", "cdkl22"} {
		recs := byEngine[e]
		if len(recs) == 0 {
			if recs, err = d.recorded(e); err != nil {
				return nil, nil, err
			}
		}
		for _, st := range stageNames {
			if e == "cdkl22" && st == "sieve" {
				continue
			}
			var msv, samp []float64
			for _, r := range recs {
				if us, ok := r.stageUS[st]; ok {
					msv = append(msv, float64(us)/1000)
					samp = append(samp, float64(r.stageSamp[st]))
				}
			}
			m.add("core.stage_ms."+e+"."+st, mean(msv), "ms")
			if st != "check" {
				m.add("core.stage_samples."+e+"."+st, mean(samp), "count")
			}
		}
	}
	m.add("core.sieve_rounds_mean", mean(sieveRounds), "count")
	m.add("core.served_vs_direct_ms", median(gs.servedMinusDirect), "ms")

	// internal/oracle.
	d.oracleLayer()
	adkRecs := byEngine["adk"]
	if len(adkRecs) == 0 {
		if adkRecs, err = d.recorded("adk"); err != nil {
			return nil, nil, err
		}
	}
	var hits, misses, dense, sparse float64
	for _, r := range adkRecs {
		hits, misses = hits+float64(r.poolHits), misses+float64(r.poolMisses)
		dense, sparse = dense+float64(r.dense), sparse+float64(r.sparse)
	}
	m.add("oracle.pool_hit_ratio", hits/math.Max(1, hits+misses), "ratio")
	m.add("oracle.dense_batch_share", dense/math.Max(1, dense+sparse), "ratio")

	// internal/learn, internal/chisq, internal/histdp.
	m.add("learn.partition_intervals_mean", mean(kParts), "count")
	if adkRes == nil {
		return nil, nil, errNoLearned
	}
	if err := d.testerInternals(adkRes); err != nil {
		return nil, nil, err
	}

	// internal/closeness.
	if err := d.closenessLayer(); err != nil {
		return nil, nil, err
	}

	// internal/stream.
	nsPerEvent, err := d.streamLayer()
	if err != nil {
		return nil, nil, err
	}
	share := 0.0
	if t.ackedEvents > 0 {
		httpNs := ingestSeconds(ph) * 1e9 / float64(t.ackedEvents)
		share = 1 - nsPerEvent/httpNs
	}
	m.add("serve.ingest_http_share", share, "ratio")
	m.add("stream.rotations", float64(ph.vars["histd.ingest_rotations"]), "count")
	m.add("stream.dropped_events", float64(ph.vars["histd.ingest_dropped_events"]), "count")
	m.add("stream.ingest_batches_rejected", float64(ph.vars["histd.ingest_rejected"]), "count")

	// internal/obs: server CPU per operation, traced against untraced.
	perOp := func(x *phase) float64 { return x.cpuMS / float64(max(1, tallyOf(x.outs).completed)) }
	m.add("obs.trace_overhead_pct", 100*(perOp(ph)/perOp(untraced)-1), "%")

	m = append(m, d.m...)
	sl.spans[d.root-1].EndUS = time.Since(sl.origin).Microseconds()
	if err := sl.write(spansPath); err != nil {
		return nil, nil, err
	}
	extra.add("obs.unjoined_runs", float64(unjoined), "count")
	for _, e := range []string{"adk", "cdkl22"} {
		extra.add("core.stage_events_from_served."+e, float64(len(byEngine[e])), "count")
	}
	return m, extra, nil
}

// errNoLearned reports a direct adk run that never reached learning.
var errNoLearned = errors.New("no direct adk run produced a learned hypothesis")

// decodeMsPerMB times decoding the workload's JSON request bodies the
// way histd does (encoding/json, unknown fields refused).
func decodeMsPerMB(d *directSuite, reqs []*request) float64 {
	wire := map[reqKind]func() any{
		kindTest:     func() any { return new(client.TestRequest) },
		kindClose:    func() any { return new(client.ClosenessRequest) },
		kindRegister: func() any { return new(client.HistogramSpec) },
		kindRetest:   func() any { return new(client.StreamTestRequest) },
	}
	var picked []*request
	var total int
	for _, r := range reqs {
		if wire[r.kind] != nil && total < 64<<20 {
			picked = append(picked, r)
			total += len(r.body)
		}
	}
	if total == 0 {
		return math.NaN()
	}
	i := 0
	var decErr error
	t := d.timer("serve.decode", len(picked), func() {
		r := picked[i]
		i++
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(wire[r.kind]()); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return math.NaN()
	}
	return sum(t) / (float64(total) / 1e6)
}

func (d *directSuite) resolveReplay() float64 {
	data := draw(d.quad, mix(d.seed, 0xda7a), datasetSize("adk"))
	t := d.timer("serve.resolve_replay", 5, func() { _, _ = oracle.NewReplay(dsN, data) })
	return median(t)
}

// resolveSampler times building a spec's alias-table sampler the way
// histd resolves an inline spec, on the largest spec any workload
// sends (the Paninski member, thousands of pieces).
func (d *directSuite) resolveSampler() float64 {
	ins, err := verdictInstances(d.seed)
	if err != nil {
		return math.NaN()
	}
	spec := ins[len(ins)-1].spec()
	t := d.timer("serve.resolve_sampler", 7, func() { _, _ = samplerOf(spec) })
	return median(t)
}
