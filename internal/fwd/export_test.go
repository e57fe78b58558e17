package fwd

import "xorp/internal/kernel"

// Len returns the ring length.
func (s *Stream) Len() int { return len(s.addrs) }

// FIB returns the kernel FIB the publisher commits to.
func (p *Publisher) FIB() *kernel.FIB { return p.fib }
