package bgp

import (
	"net/netip"

	"xorp/internal/trie"
)

// ribIn is the RIB-in (§5.1): per prefix each holder's attribute set, in one
// trie for all the PeerIns over one AttrPool and their deletion stages. The
// decision process finds a prefix here to learn which branches to ask.
type ribIn struct {
	tbl   *trie.Table[ribSlot]
	spare []*holder // emptied lists, kept with their capacity
	n     int       // (holder, prefix) pairs stored
}

func newRIBIn() *ribIn { return &ribIn{tbl: trie.New[ribSlot]()} }

// holder is a PeerIn's session or a DeletionStage's: the PeerIn whose branch
// answers for its routes, and how many. With in nil it is the list of a
// prefix's several holders; lists are recycled, so churn allocates nothing.
type holder struct {
	in   *PeerIn
	n    int
	list []ribSlot
}

// ribSlot is one holder's route for a prefix, or a list of them.
type ribSlot struct {
	attrs *PathAttrs
	who   *holder
}

// ref returns who's entry in the trie slot s, or nil.
func (t *ribIn) ref(s *ribSlot, who *holder) *ribSlot {
	if s.who == who {
		return s
	}
	if s.who != nil && s.who.in == nil {
		for i := range s.who.list {
			if s.who.list[i].who == who {
				return &s.who.list[i]
			}
		}
	}
	return nil
}

// put stores who's route for net in one trie walk; it returns the old one,
// and whether who is now net's only holder.
func (t *ribIn) put(net netip.Prefix, who *holder, attrs *PathAttrs) (old *PathAttrs, existed, sole bool) {
	t.tbl.Update(net, func(s *ribSlot, inUse bool) bool {
		if h := t.ref(s, who); h != nil {
			old, existed, sole, h.attrs = h.attrs, true, h == s, attrs
			return true
		}
		switch {
		case !inUse:
			*s, sole = ribSlot{attrs, who}, true
		case s.who.in != nil: // a second holder: the slot becomes a list
			if len(t.spare) == 0 {
				t.spare = append(t.spare, new(holder))
			}
			l := t.spare[len(t.spare)-1]
			t.spare = t.spare[:len(t.spare)-1]
			l.list = append(l.list, *s)
			*s = ribSlot{who: l}
			fallthrough
		default:
			s.who.list = append(s.who.list, ribSlot{attrs, who})
		}
		t.n, who.n = t.n+1, who.n+1
		return true
	})
	return old, existed, sole
}

// remove drops who's route for net in one trie walk; it returns it, and
// whether no holder of net is left.
func (t *ribIn) remove(net netip.Prefix, who *holder) (old *PathAttrs, existed, last bool) {
	t.tbl.Update(net, func(s *ribSlot, inUse bool) bool {
		h := t.ref(s, who)
		if h == nil {
			return inUse
		}
		old, existed = h.attrs, true
		t.n, who.n = t.n-1, who.n-1
		if h == s {
			last = true
			return false // the only holder
		}
		l := s.who
		last := len(l.list) - 1
		*h, l.list[last] = l.list[last], ribSlot{}
		if l.list = l.list[:last]; last == 1 { // one holder left
			*s, l.list[0], l.list = l.list[0], ribSlot{}, l.list[:0]
			t.spare = append(t.spare, l)
		}
		return true
	})
	return old, existed, last
}

// inTable is one holder's view of the RIB-in: per prefix an attribute
// pointer. The prefix is the trie key and the source is peer, so the Route
// is built from the three on the way out.
type inTable struct {
	peer *PeerHandle
	rib  *ribIn
	who  *holder
	// pool interns attribute sets: each stored prefix holds one reference
	// on its (canonical, shared) attrs. May be nil (tests).
	pool *AttrPool
}

// route builds the route stored as attrs under net.
func (t *inTable) route(net netip.Prefix, attrs *PathAttrs) Route {
	return Route{Net: net, Attrs: attrs, Src: t.peer}
}

// Len returns the number of stored routes.
func (t *inTable) Len() int { return t.who.n }

// Walk visits the stored routes in prefix order.
func (t *inTable) Walk(fn func(Route) bool) {
	t.rib.tbl.Walk(func(net netip.Prefix, s ribSlot) bool {
		h := t.rib.ref(&s, t.who)
		return h == nil || fn(t.route(net, h.attrs))
	})
}

// get writes the route stored under net into r and reports whether there
// is one.
func (t *inTable) get(net netip.Prefix, r *Route) bool {
	s, _ := t.rib.tbl.Get(net) // the zero slot when net has no entry
	h := t.rib.ref(&s, t.who)
	if h != nil {
		*r = t.route(net, h.attrs)
	}
	return h != nil
}
