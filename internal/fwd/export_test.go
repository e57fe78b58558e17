package fwd

// Len returns the ring length.
func (s *Stream) Len() int { return len(s.addrs) }
