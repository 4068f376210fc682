package stream

import (
	"errors"
	"testing"
)

func TestChunkerValidation(t *testing.T) {
	if _, err := NewChunker(0, func([]int) (bool, error) { return true, nil }); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewChunker(5, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
}

func TestChunkerEmitsPerChunk(t *testing.T) {
	var seen [][]int
	c, err := NewChunker(3, func(s []int) (bool, error) {
		cp := append([]int(nil), s...)
		seen = append(seen, cp)
		return len(seen)%2 == 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Offer(i)
	}
	if len(seen) != 3 {
		t.Fatalf("chunks = %d", len(seen))
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d", c.Pending())
	}
	vs := c.Verdicts()
	if len(vs) != 3 || !vs[0].Accept || vs[1].Accept || !vs[2].Accept {
		t.Fatalf("verdicts = %+v", vs)
	}
	if vs[2].ChunkIndex != 2 {
		t.Fatalf("chunk index = %d", vs[2].ChunkIndex)
	}
	// Chunk contents are in order.
	if seen[1][0] != 3 || seen[1][2] != 5 {
		t.Fatalf("second chunk = %v", seen[1])
	}
}

func TestChunkerRecordsErrors(t *testing.T) {
	boom := errors.New("boom")
	c, _ := NewChunker(2, func(s []int) (bool, error) { return false, boom })
	c.Offer(1)
	c.Offer(2)
	c.Offer(3)
	c.Offer(4)
	vs := c.Verdicts()
	if len(vs) != 2 || !errors.Is(vs[0].Err, boom) {
		t.Fatalf("verdicts = %+v", vs)
	}
}
