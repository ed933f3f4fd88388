// Package chunk stores values whose number is not known in advance in
// chunks that never move. The first chunk is small and each later one
// doubles, up to a fixed cap, so a short stream costs a few small
// allocations and a long one a fixed-size allocation per maxLen values.
// Unlike append's regrowth, no value is ever copied into a fresh array
// while the stream grows, and addresses and sub-slices handed out stay
// valid: the machine's translation cache links blocks by pointer, and the
// collector's records alias their callstacks.
package chunk

const (
	// firstLen and maxLen bound a chunk's length in values. A Copy larger
	// than maxLen gets a chunk of its own length.
	firstLen = 32
	maxLen   = 2048
)

// List is an append-only sequence of values stored in chunks. The zero
// value is an empty list.
type List[T any] struct {
	full [][]T // filled chunks, oldest first
	cur  []T   // the chunk being filled
	n    int   // values in full and cur
}

// Add appends v and returns its address, valid until Reset.
func (l *List[T]) Add(v T) *T {
	if len(l.cur) == cap(l.cur) {
		l.grow(1)
	}
	l.cur = append(l.cur, v)
	l.n++
	return &l.cur[len(l.cur)-1]
}

// Copy appends the values of vs contiguously and returns the list's copy
// of them, capped at its length so an append to it reallocates instead
// of overwriting a neighbour. An empty vs returns nil.
func (l *List[T]) Copy(vs []T) []T {
	if len(vs) == 0 {
		return nil
	}
	if cap(l.cur)-len(l.cur) < len(vs) {
		l.grow(len(vs))
	}
	i := len(l.cur)
	l.cur = append(l.cur, vs...)
	l.n += len(vs)
	return l.cur[i:len(l.cur):len(l.cur)]
}

// grow starts a chunk with room for at least k values: twice the last
// chunk's length, from firstLen up to maxLen.
func (l *List[T]) grow(k int) {
	if l.cur != nil {
		l.full = append(l.full, l.cur)
	}
	size := min(max(2*cap(l.cur), firstLen), maxLen)
	l.cur = make([]T, 0, max(size, k))
}

// Slice returns every value in order as one slice of exact length, nil
// when the list is empty, and empties the list, dropping its chunks.
// Values already handed out by Add and Copy stay valid.
func (l *List[T]) Slice() []T {
	var out []T
	if l.n > 0 {
		out = make([]T, 0, l.n)
		for _, c := range l.full {
			out = append(out, c...)
		}
		out = append(out, l.cur...)
	}
	*l = List[T]{}
	return out
}

// Reset empties the list for reuse, keeping its newest chunk: values
// stored before the call may then be overwritten, so nothing may still
// read them.
func (l *List[T]) Reset() {
	clear(l.full)
	l.full = l.full[:0]
	l.cur = l.cur[:0]
	l.n = 0
}
