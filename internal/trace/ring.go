package trace

// Ring is a fixed-capacity ring buffer of Samples modeling the
// in-memory sample area that IBS/PEBS/LWP hardware fills. When the
// occupancy crosses a configurable threshold the ring invokes an
// "interrupt" callback, mirroring LWP's threshold interrupt and the
// PEBS buffer-overflow PMI. If the producer outruns the consumer the
// oldest samples are dropped and counted, exactly like a real sampling
// buffer overrun.
type Ring struct {
	buf       []Sample
	head      int // next write position
	size      int // live entries
	threshold int
	onIRQ     func(*Ring)
	dropped   uint64
}

// NewRing returns a ring with the given capacity. threshold is the
// occupancy at which onIRQ fires (0 disables the interrupt); onIRQ may
// be nil.
func NewRing(capacity, threshold int, onIRQ func(*Ring)) *Ring {
	if capacity <= 0 {
		panic("trace: ring capacity must be positive")
	}
	return &Ring{
		buf:       make([]Sample, capacity),
		threshold: threshold,
		onIRQ:     onIRQ,
	}
}

// Push appends a sample, dropping the oldest entry if the ring is
// full, and fires the interrupt callback when the threshold is
// reached.
func (r *Ring) Push(s Sample) {
	if r.size == len(r.buf) {
		// Overwrite the oldest entry.
		r.dropped++
		r.size--
	}
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
	r.size++
	if r.onIRQ != nil && r.threshold > 0 && r.size >= r.threshold {
		r.onIRQ(r)
	}
}

// Drain removes and returns all buffered samples in arrival order,
// appending to dst to let callers reuse storage.
func (r *Ring) Drain(dst []Sample) []Sample {
	start := r.head - r.size
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.size; i++ {
		dst = append(dst, r.buf[(start+i)%len(r.buf)])
	}
	r.size = 0
	return dst
}

// Len returns the number of buffered samples.
func (r *Ring) Len() int { return r.size }

// Dropped returns the number of samples lost to overruns.
func (r *Ring) Dropped() uint64 { return r.dropped }
