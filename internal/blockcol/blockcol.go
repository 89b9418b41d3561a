// Package blockcol is the append-only column behind the observability
// layers' logs: the tracer's event and migration records and the
// flight recorder's per-page rings. A column grows by blocks that are
// never copied, moved or reallocated, so each record is stored once,
// at its final size, and a slice of a row stays valid for the life of
// the column. An append-grown slice, by contrast, keeps up to twice
// what it holds and copies it all at every doubling, with the old and
// new arrays both live during the copy.
//
// Blocks double from a small first block (16 rows) up to a fixed cap
// (1,024 rows), so a short run pays for little more than it records
// and a long one wastes at most the unused tail of one capped block.
// Row i's block and offset are computed, not searched: a few shifts
// and one bits.Len.
package blockcol

import "math/bits"

const (
	// firstShift sizes the first block: 1<<firstShift rows.
	firstShift = 4
	// capShift caps every block at 1<<capShift rows.
	capShift = 10
	// doubling is how many blocks double before the cap is reached;
	// the last of them already holds 1<<capShift rows.
	doubling = capShift - firstShift + 1
	// doubled is how many rows the doubling blocks hold together.
	doubled = (1<<doubling - 1) << firstShift
)

// Column is an append-only sequence of rows, each width elements long.
// The zero value is an empty column of one-element rows; Rows makes a
// wider one. A Column is not safe for concurrent use.
type Column[T any] struct {
	blocks [][]T // block b holds blockRows(b) rows, back to back
	tail   []T   // the last block's rows not yet added
	width  int   // elements per row; 0 means 1
	rows   int   // rows added
}

// Rows returns an empty column whose rows are width elements long.
func Rows[T any](width int) Column[T] {
	if width < 1 {
		width = 1
	}
	return Column[T]{width: width}
}

// Len returns the number of rows added.
func (c *Column[T]) Len() int { return c.rows }

// Add appends a zeroed row and returns it. It allocates only when it
// opens a block.
func (c *Column[T]) Add() []T {
	w := c.w()
	if len(c.tail) == 0 {
		c.tail = make([]T, blockRows(len(c.blocks))*w)
		c.blocks = append(c.blocks, c.tail)
	}
	row := c.tail[:w:w]
	c.tail = c.tail[w:]
	c.rows++
	return row
}

// Append adds a row whose first element is v.
func (c *Column[T]) Append(v T) { c.Add()[0] = v }

// Row returns row i, which aliases the column's storage: writes
// through it are the column's, and it stays valid as rows are added.
func (c *Column[T]) Row(i int) []T {
	if uint(i) >= uint(c.rows) {
		panic("blockcol: row index out of range")
	}
	b, off := locate(i)
	w := c.w()
	lo := off * w
	return c.blocks[b][lo : lo+w : lo+w]
}

// At returns the first element of row i.
func (c *Column[T]) At(i int) *T { return &c.Row(i)[0] }

func (c *Column[T]) w() int { return max(c.width, 1) }

// blockRows is how many rows block b holds.
func blockRows(b int) int { return 1 << min(firstShift+b, capShift) }

// locate maps row i to its block and its row offset within the block.
// The doubling blocks start at rows (2^b − 1) << firstShift; the
// capped blocks follow them, 1<<capShift rows each.
func locate(i int) (b, off int) {
	if i < doubled {
		b = bits.Len(uint(i>>firstShift+1)) - 1
		return b, i - (1<<b-1)<<firstShift
	}
	i -= doubled
	return doubling + i>>capShift, i & (1<<capShift - 1)
}
