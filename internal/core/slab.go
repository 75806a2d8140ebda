package core

// pairChunk is the number of pairs in one slab chunk. A host meets its
// peers a few at a time, so a chunk is what a new pair costs the allocator
// once in sixteen; per process rather than per host, a chunk would mostly
// hold slack wherever a process meets one peer.
const pairChunk = 16

// slab holds one side of a host's pairs by value, in chunks of pairChunk
// that are appended and never moved or grown: a pointer into a chunk — held
// by a timer handler, Host.held, a credit or a scattering — stays valid for
// the host's life. A pair is addressed by its position, counted from 1, so
// a process's pair table holds 4 bytes per peer and 0 for a peer not met.
type slab[T any] struct {
	chunks []*[pairChunk]T
	n      uint32
}

// at returns the pair at position i, 1 ≤ i ≤ n.
func (s *slab[T]) at(i uint32) *T {
	i--
	return &s.chunks[i/pairChunk][i%pairChunk]
}

// add appends a zero pair and returns its position and address.
func (s *slab[T]) add() (uint32, *T) {
	if s.n%pairChunk == 0 {
		s.chunks = append(s.chunks, new([pairChunk]T))
	}
	s.n++
	return s.n, s.at(s.n)
}
