package blockcol

import (
	"testing"

	"tieredmem/internal/testalloc"
)

// TestLocateMatchesBlockWalk checks the computed block and offset of
// every row against a walk over the blocks' sizes, through the
// doubling blocks and well into the capped ones.
func TestLocateMatchesBlockWalk(t *testing.T) {
	b, start := 0, 0
	for i := 0; i < doubled+5<<capShift; i++ {
		if i == start+blockRows(b) {
			start += blockRows(b)
			b++
		}
		gb, goff := locate(i)
		if gb != b || goff != i-start {
			t.Fatalf("row %d: locate = (%d, %d), want (%d, %d)", i, gb, goff, b, i-start)
		}
	}
	if got, want := blockRows(0), 1<<firstShift; got != want {
		t.Errorf("first block holds %d rows, want %d", got, want)
	}
	if got, want := blockRows(100), 1<<capShift; got != want {
		t.Errorf("a late block holds %d rows, want the cap %d", got, want)
	}
}

// TestRowsStayPut pins the column's promise: a row written early keeps
// its address and contents however many rows are added after it.
func TestRowsStayPut(t *testing.T) {
	c := Rows[int](3)
	first := c.Add()
	first[0], first[1], first[2] = 7, 8, 9
	for i := 1; i < 5000; i++ {
		r := c.Add()
		if len(r) != 3 || cap(r) != 3 {
			t.Fatalf("row %d: len %d cap %d, want 3 and 3", i, len(r), cap(r))
		}
		r[0] = i
	}
	if &c.Row(0)[0] != &first[0] {
		t.Fatal("row 0 moved while rows were added")
	}
	if first[0] != 7 || first[1] != 8 || first[2] != 9 {
		t.Errorf("row 0 = %v, want [7 8 9]", first)
	}
	for i := 1; i < c.Len(); i++ {
		if r := c.Row(i); r[0] != i || r[1] != 0 || r[2] != 0 {
			t.Fatalf("row %d = %v, want [%d 0 0]", i, r, i)
		}
	}
}

// TestZeroValueRowsOfOne: the zero value is a column of one-element
// rows, and At reads them.
func TestZeroValueRowsOfOne(t *testing.T) {
	var c Column[uint64]
	for i := uint64(0); i < 100; i++ {
		c.Append(i * i)
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d, want 100", c.Len())
	}
	for i := 0; i < 100; i++ {
		if got := *c.At(i); got != uint64(i*i) {
			t.Fatalf("At(%d) = %d, want %d", i, got, i*i)
		}
	}
}

// TestRowOutOfRangePanics: a row not yet added is out of range even
// when its block already exists.
func TestRowOutOfRangePanics(t *testing.T) {
	var c Column[int]
	c.Append(1)
	defer func() {
		if recover() == nil {
			t.Error("Row(1) of a one-row column did not panic")
		}
	}()
	c.Row(1)
}

// TestAddAllocatesOnlyAtBlocks pins the growth cost: the rows of an
// open block are added without allocating, and opening a block costs
// at most two allocations (the block, and now and then the block list).
func TestAddAllocatesOnlyAtBlocks(t *testing.T) {
	c := Rows[[4]int64](2)
	for b := 0; b < doubling+3; b++ {
		opened := len(c.blocks)
		allocs := testalloc.Once(func() { c.Add() })
		if len(c.blocks) != opened+1 || allocs < 1 || allocs > 2 {
			t.Fatalf("opening block %d: %d blocks after, %v allocations, want %d blocks and 1 or 2", b, len(c.blocks), allocs, opened+1)
		}
		// One run of the block's other rows, read as a total
		// (TestAllocsPinsTakeOneRun).
		rest := blockRows(b) - 1
		if allocs := testalloc.Once(func() {
			for range rest {
				c.Add()
			}
		}); allocs != 0 {
			t.Fatalf("block %d: its other %d rows allocate %v times, want 0", b, rest, allocs)
		}
	}
}
