package rtrmgr

import (
	"xorp/internal/ospf"
	"xorp/internal/rip"
)

// CurrentRIP returns the live RIP process, nil while dead.
func (r *Router) CurrentRIP() *rip.Process { return procOf[ripProc](r.current("rip")).Process }

// CurrentOSPF returns the live OSPF process, nil while dead.
func (r *Router) CurrentOSPF() *ospf.Process { return procOf[ospfProc](r.current("ospf")).Process }

// Stats reports the supervision counters for a class. Safe from any
// goroutine.
func (s *Supervisor) Stats(class string) (deaths, respawns int, givenUp bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.procs[class]
	if st == nil {
		return 0, 0, false
	}
	return st.deaths, st.respawns, st.givenUp
}
