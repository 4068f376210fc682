// Package stream runs the tester over live data streams — the
// streaming-histogram setting the paper's introduction cites ([GGI+02],
// [GKS06]). It has two parts: the sharded ingestion engine behind histd's
// /v1/streams endpoints (Accumulator, Registry, and the ndjson/binary
// event decoders), whose windowed counts are snapshotted and replayed
// into the tester, and a Chunker that hands fixed-size chunks of an
// in-process stream to a testing callback.
//
// The distribution-testing model needs i.i.d. samples; for a stream whose
// events are exchangeable within the period of interest, a window of
// recent events provides exactly that, and its size can be matched to
// the tester's budget via histtest.RequiredSamples.
package stream

import "fmt"

// Verdict is one chunk decision from a Chunker.
type Verdict struct {
	// ChunkIndex counts emitted chunks from 0.
	ChunkIndex int
	// Accept is the callback's decision for the chunk.
	Accept bool
	// Err is the callback's error, if any (the chunker keeps running).
	Err error
}

// Chunker buffers a stream into fixed-size chunks and invokes a decision
// callback on each complete chunk — the glue between a stream and
// histtest.TestSamples.
type Chunker struct {
	size    int
	buf     []int
	decide  func(samples []int) (bool, error)
	verdict []Verdict
	chunks  int
}

// NewChunker returns a chunker emitting a decision every size events.
func NewChunker(size int, decide func(samples []int) (bool, error)) (*Chunker, error) {
	if size < 1 {
		return nil, fmt.Errorf("stream: chunk size %d must be positive", size)
	}
	if decide == nil {
		return nil, fmt.Errorf("stream: nil decision callback")
	}
	return &Chunker{size: size, buf: make([]int, 0, size), decide: decide}, nil
}

// Offer feeds one event; when a chunk completes, the decision callback
// runs synchronously and its verdict is recorded.
func (c *Chunker) Offer(v int) {
	c.buf = append(c.buf, v)
	if len(c.buf) < c.size {
		return
	}
	accept, err := c.decide(c.buf)
	c.verdict = append(c.verdict, Verdict{ChunkIndex: c.chunks, Accept: accept, Err: err})
	c.chunks++
	c.buf = c.buf[:0]
}

// Verdicts returns all decisions so far.
func (c *Chunker) Verdicts() []Verdict {
	return append([]Verdict(nil), c.verdict...)
}

// Pending returns how many events are buffered toward the next chunk.
func (c *Chunker) Pending() int { return len(c.buf) }
