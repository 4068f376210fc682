package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// runRec is one tester run reassembled from stage events.
type runRec struct {
	n, k       int
	eps        float64
	samples    int64 // run-end total
	ended      bool
	failed     bool
	enterUS    map[string]int64
	stageUS    map[string]int64
	stageSamp  map[string]int64
	poolHits   int64
	poolMisses int64
	dense      int
	sparse     int
}

func newRunRec() *runRec {
	return &runRec{enterUS: map[string]int64{}, stageUS: map[string]int64{}, stageSamp: map[string]int64{}}
}

// stageEvent is one line of histd's -trace-json output (the obs
// JSONLines schema).
type stageEvent struct {
	Run       uint64  `json:"run"`
	Kind      string  `json:"kind"`
	Stage     string  `json:"stage"`
	ElapsedUS int64   `json:"elapsed_us"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Eps       float64 `json:"eps"`
	Samples   int64   `json:"samples"`
	Dense     int     `json:"dense_batches"`
	Sparse    int     `json:"sparse_batches"`
	PoolHits  int64   `json:"pool_hits"`
	PoolMiss  int64   `json:"pool_misses"`
	Err       string  `json:"err"`
}

// apply folds one event into the run records.
func apply(runs map[uint64]*runRec, order *[]uint64, e stageEvent) {
	r := runs[e.Run]
	if r == nil {
		r = newRunRec()
		runs[e.Run] = r
		*order = append(*order, e.Run)
	}
	switch e.Kind {
	case "run-start":
		r.n, r.k, r.eps = e.N, e.K, e.Eps
	case "stage-enter":
		r.enterUS[e.Stage] = e.ElapsedUS
	case "stage-exit":
		r.stageUS[e.Stage] += e.ElapsedUS - r.enterUS[e.Stage]
		r.stageSamp[e.Stage] += e.Samples
	case "sieve-round":
		r.poolHits += e.PoolHits
		r.poolMisses += e.PoolMiss
		r.dense += e.Dense
		r.sparse += e.Sparse
	case "run-end":
		r.ended, r.samples, r.failed = true, e.Samples, e.Err != ""
	}
}

// parseHistdTrace reads histd's -trace-json file into runs, in order of
// first appearance.
func parseHistdTrace(path string) ([]*runRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[uint64]*runRec{}
	var order []uint64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var e stageEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		apply(runs, &order, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]*runRec, 0, len(order))
	for _, id := range order {
		out = append(out, runs[id])
	}
	return out, nil
}

// recordsOf converts in-process obs events (a direct call with an
// obs.TraceRecorder) into the same run records.
func recordsOf(events []obs.Event) []*runRec {
	runs := map[uint64]*runRec{}
	var order []uint64
	for _, e := range events {
		se := stageEvent{Run: e.Run, Kind: e.Kind.String(), ElapsedUS: e.Elapsed.Microseconds(),
			N: e.N, K: e.K, Eps: e.Eps, Samples: e.Samples, Dense: e.Dense, Sparse: e.Sparse,
			PoolHits: e.PoolHits, PoolMiss: e.PoolMisses, Err: e.Err}
		if e.Kind == obs.KindStageEnter || e.Kind == obs.KindStageExit || e.Kind == obs.KindSieveRound {
			se.Stage = e.Stage.String()
		}
		apply(runs, &order, se)
	}
	out := make([]*runRec, 0, len(order))
	for _, id := range order {
		out = append(out, runs[id])
	}
	return out
}

// runKey is the join key between a stage-event run and a served
// one-sample verdict: both carry (n, k, ε, total samples).
func runKey(n, k int, eps float64, samples int64) string {
	return fmt.Sprintf("%d/%d/%v/%d", n, k, eps, samples)
}

// joinRuns attributes each traced run to the served request it
// answered. Twins (the same run served twice, as spec and sampler) are
// matched in order. It returns the runs grouped by engine, the request
// each run joined, and how many runs joined nothing.
func joinRuns(runs []*runRec, outs []*outcome) (byEngine map[string][]*runRec, joined map[*runRec]*outcome, unjoined int) {
	queue := map[string][]*outcome{}
	for _, o := range outs {
		if o.verdict && (o.req.kind == kindTest || o.req.kind == kindRetest) {
			key := runKey(o.req.n, o.req.k, o.req.eps, o.samples)
			queue[key] = append(queue[key], o)
		}
	}
	byEngine = map[string][]*runRec{}
	joined = map[*runRec]*outcome{}
	for _, r := range runs {
		if !r.ended || r.failed {
			continue
		}
		key := runKey(r.n, r.k, r.eps, r.samples)
		q := queue[key]
		if len(q) == 0 {
			unjoined++
			continue
		}
		joined[r] = q[0]
		queue[key] = q[1:]
		byEngine[q[0].req.engine] = append(byEngine[q[0].req.engine], r)
	}
	return byEngine, joined, unjoined
}

// span is one timed interval of the benchmark's own trace: a request
// (with the request ID histd's stage events join to) or a direct layer
// call. Times are µs since the traced phase started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request int    `json:"request"` // -1 for direct layer calls
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(parent int, name string, req int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id, parent, name, req, start.Sub(l.origin).Microseconds(), end.Sub(l.origin).Microseconds()})
	return id
}

// requestSpans records one span per request and, under it, one span per
// stage of the histd run it joined (stage times are the run's own,
// placed from the request's send time).
func (l *spanLog) requestSpans(outs []*outcome, joined map[*runRec]*outcome) {
	ids := map[*outcome]int{}
	for _, o := range outs {
		ids[o] = l.add(0, o.req.class, o.req.id, o.send, o.done)
	}
	var runs []*runRec
	for r := range joined {
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool { return joined[runs[i]].req.id < joined[runs[j]].req.id })
	for _, r := range runs {
		o := joined[r]
		for _, st := range stageNames {
			if d, ok := r.stageUS[st]; ok {
				start := o.send.Add(time.Duration(r.enterUS[st]) * time.Microsecond)
				l.add(ids[o], "histd."+st, o.req.id, start, start.Add(time.Duration(d)*time.Microsecond))
			}
		}
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var stageNames = []string{"partition", "learn", "sieve", "check", "test"}
