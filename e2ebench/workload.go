package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/histtest/client"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// reqKind is the endpoint a request targets.
type reqKind int

const (
	kindTest     reqKind = iota // POST /v1/test
	kindClose                   // POST /v1/closeness
	kindRegister                // POST /v1/samplers
	kindIngest                  // POST /v1/streams/{id}/events
	kindRetest                  // POST /v1/streams/{id}/test
)

// Ground truth of a verdict-bearing request.
const (
	expectNone = iota
	expectAccept
	expectReject
)

// Stream roles of the stream workload; a request's stream field indexes
// the IDs histd assigned at set-up.
const (
	streamLive   = iota // dense n=1000 sliding window, fed i.i.d. from quad
	streamBulk          // ingest-only n=2¹⁶
	streamFrozen        // pre-filled once, never fed again
	numStreams
)

// request is one pre-encoded HTTP request of a workload. Everything
// histd sees is fixed at generation time; only stream paths are
// completed at set-up, because histd picks stream IDs at random.
type request struct {
	id     int
	class  string
	kind   reqKind
	path   string // with "{id}" standing for the stream ID
	stream int
	ctype  string
	body   []byte
	events int64 // ingest: events in the batch

	expect int
	defect bool   // a wrong verdict here is the documented ADK defect
	engine string // one-sample runs: the engine that served it
	n, k   int
	eps    float64
	gate   *gateCase     // non-nil: replayed in-process and compared
	due    time.Duration // open loop: when the request is scheduled
}

// plan is a workload's fixed request sequence plus its set-up.
type plan struct {
	workload string
	// setup registers samplers and streams and pre-fills streams on a
	// fresh server, returning the stream IDs (stream workload only).
	setup func(h *histd) ([]string, error)
	// closed runs closed loop on two connections (verdict, dataset).
	closed []*request
	// ingest runs closed loop on one connection and retests open loop on
	// a second (stream).
	ingest, retests []*request
}

// mix derives a non-zero seed from a tuple (SplitMix64 finalizer over a
// running hash), so every request seed is a pure function of the
// workload seed and the request's position.
func mix(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h | 1
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs always marshal
	}
	return b
}

// cyclesFor sizes a fixed-work run: enough whole cycles to last about
// seconds at the commit that defined the benchmark. The count depends on
// the arguments only, never on measured speed, so a faster program
// finishes the same work sooner.
func cyclesFor(seconds, cycleSeconds float64) int {
	return max(1, int(math.Ceil(seconds/cycleSeconds)))
}

// ---- verdict ----

// verdictClass is one engine × count-strategy class. perCycle is how
// many requests of the class each (instance, source) pair sends per
// cycle. The counts were fixed when the benchmark was defined so that
// each class takes about a quarter of the wall time at that commit;
// they are part of the benchmark and are never re-tuned by a change
// that claims a gain.
type verdictClass struct {
	engine, cs string
	perCycle   int
}

var verdictClasses = []verdictClass{
	{"adk", "exact", 1},
	{"adk", "closed-form", 2},
	{"cdkl22", "exact", 2},
	{"cdkl22", "closed-form", 2},
}

// verdictCycleSeconds is the wall time of one verdict cycle on the
// machine the benchmark was defined on (2 cores).
const verdictCycleSeconds = 8.5

func csName(cs string) string { return strings.ReplaceAll(cs, "-", "_") }

func verdictPlan(seed uint64, seconds float64) (*plan, error) {
	ins, err := verdictInstances(seed)
	if err != nil {
		return nil, err
	}
	p := &plan{workload: "verdict"}
	specs := make([]*client.HistogramSpec, len(ins))
	regBodies := make([][]byte, len(ins))
	for i, in := range ins {
		specs[i] = in.spec()
		regBodies[i] = mustJSON(specs[i])
	}
	p.setup = func(h *histd) ([]string, error) {
		return nil, registerAll(h, regBodies)
	}
	cycles := cyclesFor(seconds, verdictCycleSeconds)
	for c := 0; c < cycles; c++ {
		var cyc []*request
		for i, in := range ins {
			for ci, cl := range verdictClasses {
				for r := 0; r < cl.perCycle; r++ {
					s := mix(seed, uint64(c), uint64(i), uint64(ci), uint64(r))
					var gate *gateCase
					if c == 0 && r == 0 {
						gate = oneSampleGate(specs[i], s, s+50, in.k, in.eps, cl.engine, cl.cs)
					}
					for _, src := range []string{"spec", "sampler"} {
						tr := client.TestRequest{SamplerSeed: s + 50, K: in.k, Eps: in.eps, Seed: s, Engine: cl.engine}
						if cl.cs != "exact" {
							tr.CountStrategy = cl.cs
						}
						if src == "spec" {
							tr.Spec = specs[i]
						} else {
							tr.Sampler = "s" + strconv.Itoa(i+1)
						}
						expect := expectAccept
						if in.far {
							expect = expectReject
						}
						cyc = append(cyc, &request{
							class:  fmt.Sprintf("%s/%s/%s/%s", in.name, src, cl.engine, csName(cl.cs)),
							kind:   kindTest,
							path:   "/v1/test",
							ctype:  "application/json",
							body:   mustJSON(tr),
							expect: expect,
							defect: in.adkDefect && cl.engine == "adk",
							engine: cl.engine,
							n:      in.d.N(), k: in.k, eps: in.eps,
							gate: gate,
						})
					}
				}
			}
		}
		shuffle(rng.New(mix(seed, uint64(c), 0xc1c1e)), cyc)
		p.closed = append(p.closed, cyc...)
	}
	number(p.closed)
	return p, nil
}

// registerAll registers the specs in order and checks histd assigned
// the IDs s1, s2, … the pre-encoded bodies name.
func registerAll(h *histd, bodies [][]byte) error {
	for i, b := range bodies {
		var rr client.RegisterResponse
		if err := h.post("/v1/samplers", "application/json", b, &rr); err != nil {
			return err
		}
		if want := "s" + strconv.Itoa(i+1); rr.ID != want {
			return fmt.Errorf("sampler registered as %q, want %q", rr.ID, want)
		}
	}
	return nil
}

func shuffle(r *rng.RNG, xs []*request) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func number(xs []*request) {
	for i, r := range xs {
		r.id = i
	}
}

// ---- dataset ----

// Dataset-workload parameters: one-sample tests of recorded datasets at
// (n, k, ε) = (1000, 4, 0.8), closeness at ε = 0.3 between quad and
// itself (accept) or quadFar (TV 0.4, reject).
const (
	dsN, dsK      = 1000, 4
	dsEps         = 0.8
	closeEps      = 0.3
	dsPool        = 2 // recorded datasets per engine, reused across cycles
	dsCycleSecond = 0.18
)

// datasetSize is the recorded dataset length for one engine: its nominal
// budget plus 10% headroom, so replay never runs dry (422).
func datasetSize(engine string) int {
	cfg := core.PracticalConfig()
	cfg.Engine = engine
	return int(1.1*float64(core.ExpectedSamples(dsN, dsK, dsEps, cfg))) + 1000
}

// closeSideSize is one closeness side's dataset length: half the
// two-sided nominal budget plus 20% headroom.
func closeSideSize() int {
	return int(0.6*float64(closeness.DefaultConfig().ExpectedSamples(dsN, dsK, closeEps))) + 1000
}

// draw returns m i.i.d. samples of the sampler forked at seed.
func draw(proto *oracle.Sampler, seed uint64, m int) []int {
	o := proto.Fork(rng.New(seed))
	out := make([]int, m)
	for i := range out {
		out[i] = o.Draw()
	}
	return out
}

func datasetPlan(seed uint64, seconds float64) (*plan, error) {
	if tv(quadMasses, quadFarM, dsN, quadCuts) < closeEps {
		return nil, fmt.Errorf("closeness far pair is not eps-far")
	}
	quad := &client.HistogramSpec{N: dsN, Cuts: quadCuts, Masses: quadMasses}
	quadFar := &client.HistogramSpec{N: dsN, Cuts: quadCuts, Masses: quadFarM}
	pq, err := samplerOf(quad)
	if err != nil {
		return nil, err
	}
	pf, err := samplerOf(quadFar)
	if err != nil {
		return nil, err
	}
	p := &plan{workload: "dataset"}
	regBodies := [][]byte{mustJSON(quad), mustJSON(quadFar)}
	p.setup = func(h *histd) ([]string, error) { return nil, registerAll(h, regBodies) }

	// Recorded one-sample requests: dsPool per engine, each encoded once
	// (bodies are megabytes) and sent again every dsPool cycles. Each is
	// gated once.
	var pool []*request
	for ei, e := range []string{"adk", "cdkl22"} {
		for j := 0; j < dsPool; j++ {
			data := draw(pq, mix(seed, 0xda7a, uint64(len(pool))), datasetSize(e))
			s := mix(seed, uint64(j), 0x7e57, uint64(ei))
			pool = append(pool, &request{
				class: "test/samples/" + e, kind: kindTest, path: "/v1/test", ctype: "application/json",
				body:   mustJSON(client.TestRequest{Samples: data, N: dsN, K: dsK, Eps: dsEps, Seed: s, Engine: e}),
				expect: expectAccept, engine: e, n: dsN, k: dsK, eps: dsEps,
				gate: &gateCase{direct: func() (any, error) {
					o, err := oracle.NewReplay(dsN, data)
					if err != nil {
						return nil, err
					}
					return directTest(o, s, dsK, dsEps, e, "")
				}},
			})
		}
	}
	side := closeSideSize()
	sameA := draw(pq, mix(seed, 0x5a3e, 1), side)
	sameB := draw(pq, mix(seed, 0x5a3e, 2), side)
	farB := draw(pf, mix(seed, 0x5a3e, 3), side)

	cycles := cyclesFor(seconds, dsCycleSecond)
	gated := map[string]bool{}
	take := func(class string) bool {
		if gated[class] {
			return false
		}
		gated[class] = true
		return true
	}
	for c := 0; c < cycles; c++ {
		var cyc []*request
		for ei := 0; ei < 2; ei++ {
			r := *pool[ei*dsPool+c%dsPool]
			cyc = append(cyc, &r)
		}
		// Closeness: per cycle one samples pair of each truth, and two
		// spec and two sampler pairs of each truth.
		type pairSrc struct {
			kind     string
			a, b     client.ClosenessSide
			far      bool
			n        int
			perCycle int
		}
		pairs := []pairSrc{
			{"samples", client.ClosenessSide{Samples: sameA}, client.ClosenessSide{Samples: sameB}, false, dsN, 1},
			{"samples", client.ClosenessSide{Samples: sameA}, client.ClosenessSide{Samples: farB}, true, dsN, 1},
			{"spec", client.ClosenessSide{Spec: quad}, client.ClosenessSide{Spec: quad}, false, 0, 2},
			{"spec", client.ClosenessSide{Spec: quad}, client.ClosenessSide{Spec: quadFar}, true, 0, 2},
			{"sampler", client.ClosenessSide{Sampler: "s1"}, client.ClosenessSide{Sampler: "s1"}, false, 0, 2},
			{"sampler", client.ClosenessSide{Sampler: "s1"}, client.ClosenessSide{Sampler: "s2"}, true, 0, 2},
		}
		for pi, pr := range pairs {
			for r := 0; r < pr.perCycle; r++ {
				s := mix(seed, uint64(c), 0xc105e, uint64(pi), uint64(r))
				req := client.ClosenessRequest{A: pr.a, B: pr.b, N: pr.n, K: dsK, Eps: closeEps, Seed: s, SamplerSeed: s + 50}
				truth, expect := "same", expectAccept
				if pr.far {
					truth, expect = "far", expectReject
				}
				rq := &request{
					class: "closeness/" + pr.kind + "/" + truth, kind: kindClose, path: "/v1/closeness",
					ctype: "application/json", body: mustJSON(req), expect: expect,
				}
				if take(rq.class) {
					rq.gate = closenessGate(req, map[string]*oracle.Sampler{"s1": pq, "s2": pf})
				}
				cyc = append(cyc, rq)
			}
		}
		// One registration per cycle, beside the sampler-side reads.
		cyc = append(cyc, &request{class: "register", kind: kindRegister, path: "/v1/samplers", ctype: "application/json", body: regBodies[c%2]})
		shuffle(rng.New(mix(seed, uint64(c), 0xc1c1e)), cyc)
		p.closed = append(p.closed, cyc...)
	}
	number(p.closed)
	return p, nil
}

// ---- stream ----

const (
	batchEvents     = 1 << 16 // events per ingest batch
	livePool        = 64      // distinct live batches (≈4.2M events)
	bulkPool        = 8       // distinct bulk batches
	prefillBatches  = 80      // ≈5.2M events: the adk budget at (1000, 4, 0.5) with headroom
	retestPeriod    = 800 * time.Millisecond
	streamWindowMS  = 1000 // rotation period; 8 generations keep ≈8 s, so a run drops events
	streamK         = 4
	streamEps       = 0.5
	bulkDomain      = 1 << 16
	ingestPerSecond = 375 // ingest batches per second at the defining commit
)

// batch is one pre-encoded ingest body.
type batch struct {
	ctype string
	body  []byte
}

// encodeBatch renders events as a binary frame or as ndjson lines.
func encodeBatch(vals []int, ndjson bool) batch {
	if !ndjson {
		return batch{"application/octet-stream", client.EncodeEventsBinary(vals)}
	}
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte('\n')
	}
	return batch{"application/x-ndjson", []byte(sb.String())}
}

// liveBatches are the live stream's batches: i.i.d. draws from quad,
// even batches binary, odd ones ndjson. The pool is large enough that
// the window's empirical distribution stays within sampling noise of
// quad even though batches repeat.
func liveBatches(pq *oracle.Sampler, seed uint64) []batch {
	out := make([]batch, livePool)
	for j := range out {
		out[j] = encodeBatch(draw(pq, mix(seed, 0x11fe, uint64(j)), batchEvents), j%2 == 1)
	}
	return out
}

func streamPlan(seed uint64, seconds float64) (*plan, error) {
	quad := &client.HistogramSpec{N: dsN, Cuts: quadCuts, Masses: quadMasses}
	pq, err := samplerOf(quad)
	if err != nil {
		return nil, err
	}
	specs := [numStreams]client.StreamSpec{
		streamLive:   {N: dsN, K: streamK, Eps: streamEps, Seed: mix(seed, 1), WindowMS: streamWindowMS},
		streamBulk:   {N: bulkDomain, K: streamK, Eps: streamEps, Seed: mix(seed, 2)},
		streamFrozen: {N: dsN, K: streamK, Eps: streamEps, Seed: mix(seed, 3)},
	}
	live := liveBatches(pq, seed)
	bulk := make([]batch, bulkPool)
	ur := rng.New(mix(seed, 0xb01c))
	for j := range bulk {
		vals := make([]int, batchEvents)
		for i := range vals {
			vals[i] = ur.Intn(bulkDomain)
		}
		bulk[j] = encodeBatch(vals, j%2 == 1)
	}
	frozenVals := draw(pq, mix(seed, 0xf402e), prefillBatches*batchEvents)
	frozen := make([]int32, len(frozenVals))
	for i, v := range frozenVals {
		frozen[i] = int32(v)
	}
	frozenCounts, err := foldEvents(dsN, frozen)
	if err != nil {
		return nil, err
	}
	var frozenBodies [][]byte
	for b := 0; b < prefillBatches; b++ {
		frozenBodies = append(frozenBodies, client.EncodeEventsBinary(frozenVals[b*batchEvents:(b+1)*batchEvents]))
	}

	p := &plan{workload: "stream"}
	p.setup = func(h *histd) ([]string, error) {
		ids := make([]string, numStreams)
		for i := range specs {
			var info client.StreamInfo
			if err := h.post("/v1/streams", "application/json", mustJSON(specs[i]), &info); err != nil {
				return nil, err
			}
			ids[i] = info.ID
		}
		for b := 0; b < prefillBatches; b++ {
			if err := h.post("/v1/streams/"+ids[streamLive]+"/events", live[b%livePool].ctype, live[b%livePool].body, nil); err != nil {
				return nil, err
			}
			if err := h.post("/v1/streams/"+ids[streamFrozen]+"/events", "application/octet-stream", frozenBodies[b], nil); err != nil {
				return nil, err
			}
		}
		return ids, nil
	}

	// Ingest alternates streams (live, bulk, live, …) and, per stream,
	// formats (binary, ndjson, …).
	nIngest := max(2, int(math.Ceil(seconds*ingestPerSecond)))
	for i := 0; i < nIngest; i++ {
		target, b := streamLive, live[(i/2)%livePool]
		if i%2 == 1 {
			target, b = streamBulk, bulk[(i/2)%bulkPool]
		}
		class := "ingest/binary"
		if b.ctype != "application/octet-stream" {
			class = "ingest/ndjson"
		}
		p.ingest = append(p.ingest, &request{kind: kindIngest, class: class, path: "/v1/streams/{id}/events",
			stream: target, ctype: b.ctype, body: b.body, events: batchEvents})
	}
	number(p.ingest)

	// Retests run while the ingest lasts; the schedule covers three
	// times the nominal length, so a slow machine never runs out of it.
	nRetest := max(2, int(math.Ceil(3*seconds/retestPeriod.Seconds())))
	for j := 0; j < nRetest; j++ {
		s := mix(seed, 0x2e7e57, uint64(j))
		target, class := streamLive, "retest/live"
		if j%2 == 1 {
			target, class = streamFrozen, "retest/frozen"
		}
		r := &request{
			class: class, kind: kindRetest, path: "/v1/streams/{id}/test", stream: target,
			ctype: "application/json", body: mustJSON(client.StreamTestRequest{Seed: s}),
			expect: expectAccept, engine: core.DefaultEngine, n: dsN, k: streamK, eps: streamEps,
			due: time.Duration(j) * retestPeriod,
		}
		if target == streamFrozen && j < 4 {
			r.gate = frozenGate(frozenCounts, s, streamK, streamEps)
		}
		p.retests = append(p.retests, r)
	}
	number(p.retests)
	for _, r := range p.retests {
		r.id += len(p.ingest)
	}
	return p, nil
}

// planFor builds the named workload's plan.
func planFor(workload string, seed uint64, seconds float64) (*plan, error) {
	switch workload {
	case "verdict":
		return verdictPlan(seed, seconds)
	case "dataset":
		return datasetPlan(seed, seconds)
	case "stream":
		return streamPlan(seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want verdict, dataset or stream)", workload)
}
