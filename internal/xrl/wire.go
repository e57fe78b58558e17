package xrl

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
)

// Binary wire codec for XRL requests and replies. The encoding is
// length-delimited and append-based: encoders append to a caller-supplied
// buffer (pooled via GetBuf/PutBuf on hot paths) and decoders intern the
// repeated closed-set strings and reuse Args capacity (ParseRequest /
// ParseReply), so the Figure-9 workload encodes and decodes without
// allocating in steady state.
//
// Frame layout (after any transport-level length prefix):
//
//	u8  frame type (1 request, 2 reply)
//	u32 sequence number (correlates replies to requests)
//	request:  str16 target | str16 command | str16 key | args
//	reply:    u32 error code | str16 error note | args
//	args:     u16 count | atom...
//	atom:     u8 type | str8 name | value (type-dependent)
//	route:    u8 flags | net address (4 or 16 bytes) | u8 bits |
//	          nexthop address (4 or 16 bytes, if present) |
//	          u32 metric | str8 ifname

// Frame types.
const (
	FrameRequest = 1
	FrameReply   = 2
)

// Request is the wire form of an XRL invocation.
type Request struct {
	Seq     uint32
	Target  string // component instance the call is addressed to
	Command string // "interface/version/method"
	Key     string
	Args    Args
}

// Reply is the wire form of an XRL result.
type Reply struct {
	Seq  uint32
	Code ErrorCode
	Note string
	Args Args
}

// AppendRequest appends the encoded request to dst.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	dst = append(dst, FrameRequest)
	dst = binary.BigEndian.AppendUint32(dst, r.Seq)
	var err error
	if dst, err = appendStr16(dst, r.Target); err != nil {
		return dst, err
	}
	if dst, err = appendStr16(dst, r.Command); err != nil {
		return dst, err
	}
	if dst, err = appendStr16(dst, r.Key); err != nil {
		return dst, err
	}
	return appendArgs(dst, r.Args)
}

// AppendReply appends the encoded reply to dst.
func AppendReply(dst []byte, r *Reply) ([]byte, error) {
	dst = append(dst, FrameReply)
	dst = binary.BigEndian.AppendUint32(dst, r.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Code))
	var err error
	if dst, err = appendStr16(dst, r.Note); err != nil {
		return dst, err
	}
	return appendArgs(dst, r.Args)
}

// ParseRequest decodes a request frame into req, reusing the capacity of
// req.Args and of the list each atom of it held, and keeping each string
// req (or the atom at that index of req.Args' backing array) already
// holds when the frame repeats it. With a warm intern table a frame
// without txt or binary values decodes without allocating, its lists
// included, which is what keeps the receive side of the Figure-9
// benchmark and of a route batch off the garbage collector. The result
// does not alias buf: short repeated strings (target, command, key, atom
// names) come from the process-wide intern table and everything else is
// copied, so callers may reuse buf at once.
func ParseRequest(buf []byte, req *Request) error {
	d := decoder{buf: buf}
	if ft := d.u8(); ft != FrameRequest {
		if d.err != nil {
			return d.err
		}
		return fmt.Errorf("xrl: frame type %d is not a request", ft)
	}
	return req.parseBody(&d)
}

// ParseReply is ParseRequest for reply frames.
func ParseReply(buf []byte, rep *Reply) error {
	d := decoder{buf: buf}
	if ft := d.u8(); ft != FrameReply {
		if d.err != nil {
			return d.err
		}
		return fmt.Errorf("xrl: frame type %d is not a reply", ft)
	}
	return rep.parseBody(&d)
}

func (r *Request) parseBody(d *decoder) error {
	r.Seq = d.u32()
	r.Target = d.str16(r.Target)
	r.Command = d.str16(r.Command)
	r.Key = d.str16(r.Key)
	r.Args = d.args(reusable(r.Args))
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("xrl: %d trailing bytes in request frame", len(d.buf)-d.off)
	}
	return nil
}

func (r *Reply) parseBody(d *decoder) error {
	r.Seq = d.u32()
	r.Code = ErrorCode(d.u32())
	r.Note = d.str16(r.Note)
	r.Args = d.args(reusable(r.Args))
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("xrl: %d trailing bytes in reply frame", len(d.buf)-d.off)
	}
	return nil
}

func appendStr8(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint8 {
		return dst, fmt.Errorf("xrl: string too long for str8 (%d bytes)", len(s))
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...), nil
}

func appendStr16(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return dst, fmt.Errorf("xrl: string too long for str16 (%d bytes)", len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

func appendArgs(dst []byte, args Args) ([]byte, error) {
	if len(args) > math.MaxUint16 {
		return dst, fmt.Errorf("xrl: too many arguments (%d)", len(args))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(args)))
	var err error
	for i := range args {
		if dst, err = appendAtom(dst, &args[i]); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendAtom(dst []byte, a *Atom) ([]byte, error) {
	dst = append(dst, byte(a.Type))
	var err error
	if dst, err = appendStr8(dst, a.Name); err != nil {
		return dst, err
	}
	switch a.Type {
	case TypeBool:
		if a.BoolVal {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case TypeI32, TypeU32:
		dst = binary.BigEndian.AppendUint32(dst, uint32(a.IntVal))
	case TypeI64, TypeU64:
		dst = binary.BigEndian.AppendUint64(dst, uint64(a.IntVal))
	case TypeFP64:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.F64Val))
	case TypeText:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.TextVal)))
		dst = append(dst, a.TextVal...)
	case TypeBinary:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(a.BinVal)))
		dst = append(dst, a.BinVal...)
	case TypeIPv4:
		if !a.AddrVal.Is4() {
			return dst, fmt.Errorf("xrl: atom %q: %v is not IPv4", a.Name, a.AddrVal)
		}
		b := a.AddrVal.As4()
		dst = append(dst, b[:]...)
	case TypeIPv6:
		if a.AddrVal.Is4() || !a.AddrVal.IsValid() {
			return dst, fmt.Errorf("xrl: atom %q: %v is not IPv6", a.Name, a.AddrVal)
		}
		b := a.AddrVal.As16()
		dst = append(dst, b[:]...)
	case TypeIPv4Net:
		if !a.NetVal.Addr().Is4() {
			return dst, fmt.Errorf("xrl: atom %q: %v is not an IPv4 prefix", a.Name, a.NetVal)
		}
		b := a.NetVal.Addr().As4()
		dst = append(dst, b[:]...)
		dst = append(dst, byte(a.NetVal.Bits()))
	case TypeIPv6Net:
		if a.NetVal.Addr().Is4() || !a.NetVal.IsValid() {
			return dst, fmt.Errorf("xrl: atom %q: %v is not an IPv6 prefix", a.Name, a.NetVal)
		}
		b := a.NetVal.Addr().As16()
		dst = append(dst, b[:]...)
		dst = append(dst, byte(a.NetVal.Bits()))
	case TypeRoute:
		return appendRoute(dst, a)
	case TypeList:
		var err error
		if dst, err = appendArgs(dst, Args(a.ListVal)); err != nil {
			return dst, err
		}
	default:
		return dst, fmt.Errorf("xrl: cannot encode atom type %v", a.Type)
	}
	return dst, nil
}

// Flag bits of a route atom's wire form.
const (
	routeNet6       = 1 << iota // the prefix is IPv6
	routeHasNexthop             // a next hop follows the prefix
	routeNexthop6               // the next hop is IPv6
	routeFlagsMask  = routeNet6 | routeHasNexthop | routeNexthop6
)

// appendIP appends a's 4 or 16 address bytes.
func appendIP(dst []byte, a netip.Addr) []byte {
	if a.Is4() {
		b := a.As4()
		return append(dst, b[:]...)
	}
	b := a.As16()
	return append(dst, b[:]...)
}

func appendRoute(dst []byte, a *Atom) ([]byte, error) {
	if !a.NetVal.IsValid() {
		return dst, fmt.Errorf("xrl: atom %q: route has no valid prefix", a.Name)
	}
	var flags byte
	if !a.NetVal.Addr().Is4() {
		flags |= routeNet6
	}
	if a.AddrVal.IsValid() {
		flags |= routeHasNexthop
		if !a.AddrVal.Is4() {
			flags |= routeNexthop6
		}
	}
	dst = append(dst, flags)
	dst = appendIP(dst, a.NetVal.Addr())
	dst = append(dst, byte(a.NetVal.Bits()))
	if a.AddrVal.IsValid() {
		dst = appendIP(dst, a.AddrVal)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.IntVal))
	return appendStr8(dst, a.TextVal)
}

// maxListDepth bounds how deep list atoms may nest in a decoded frame.
// Nothing in the router nests deeper than a list of lists; without a
// bound, a frame of a few megabytes of nested list headers would recurse
// the decoder until the goroutine's stack ran out, which no recover
// catches.
const maxListDepth = 8

// decoder is a cursor over an encoded frame with sticky error handling.
type decoder struct {
	buf   []byte
	off   int
	depth int // list atoms open around the cursor
	err   error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("xrl: decode: "+format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("truncated frame (need %d bytes at %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// str8 and str16 return the string the next bytes spell. A transport
// decodes every frame of a connection into one Request or Reply, and the
// frames repeat their strings, so last — what the destination held before
// this frame — is tried first: bytes equal to it return it without a
// lookup. Anything else is interned: names, targets, commands and keys
// form a small closed set per deployment, so steady-state decodes of them
// are allocation-free either way.
func (d *decoder) str8(last string) string { return d.str(int(d.u8()), last) }

func (d *decoder) str16(last string) string { return d.str(int(d.u16()), last) }

func (d *decoder) str(n int, last string) string {
	b := d.take(n)
	if string(b) == last {
		return last
	}
	return internBytes(b)
}

// MaxKeptItems is the widest list storage kept for reuse between calls:
// an argument list or list atom the next frame decoded into the same
// Request or Reply reuses, a call record's item buffer (xipc) and a list
// binding's scratch (xif). It is four times the 256-route batches BGP and
// the RIB's FIB client send. Wider storage, from an IGP's table dump or
// one hostile 65,535-item frame, serves its call or frame and is dropped.
const MaxKeptItems = 1024

// reusable is the storage of an argument list or list atom the last frame
// decoded, emptied for the next one to reuse, or nil past MaxKeptItems.
func reusable(a Args) Args {
	if cap(a) > MaxKeptItems {
		return nil
	}
	return a[:0]
}

// args decodes an argument list into dst, which is empty: nil, or a
// zero-length slice whose capacity is reused. Each atom is decoded in
// place, over what the backing array held at its index.
func (d *decoder) args(dst Args) Args {
	n := int(d.u16())
	if d.err != nil {
		return dst
	}
	// Sanity bound: each atom needs at least 2 bytes.
	if n*2 > len(d.buf)-d.off {
		d.fail("argument count %d exceeds frame size", n)
		return dst
	}
	if dst == nil || cap(dst) < n {
		dst = make(Args, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		dst = dst[:i+1]
		d.atom(&dst[i])
	}
	return dst
}

// atom decodes one atom over *a. The name a held, the previous frame's at
// this index, is the one the new name most likely repeats, and a list is
// decoded over the items a held, the way a frame's arguments are.
func (d *decoder) atom(a *Atom) {
	last, items := a.Name, a.ListVal
	*a = Atom{Type: AtomType(d.u8())}
	a.Name = d.str8(last)
	switch a.Type {
	case TypeBool:
		a.BoolVal = d.u8() != 0
	case TypeI32:
		a.IntVal = int64(int32(d.u32()))
	case TypeU32:
		a.IntVal = int64(d.u32())
	case TypeI64, TypeU64:
		a.IntVal = int64(d.u64())
	case TypeFP64:
		a.F64Val = math.Float64frombits(d.u64())
	case TypeText:
		n := int(d.u32())
		a.TextVal = string(d.take(n))
	case TypeBinary:
		n := int(d.u32())
		b := d.take(n)
		if b != nil {
			a.BinVal = append([]byte(nil), b...)
		}
	case TypeIPv4:
		a.AddrVal = d.ip(false)
	case TypeIPv6:
		a.AddrVal = d.ip(true)
	case TypeIPv4Net, TypeIPv6Net:
		a.NetVal = d.prefix(a.Type == TypeIPv6Net)
	case TypeRoute:
		d.route(a)
	case TypeList:
		if d.depth == maxListDepth {
			d.fail("lists nested deeper than %d", maxListDepth)
			break
		}
		d.depth++
		a.ListVal = d.args(reusable(items))
		d.depth--
	default:
		d.fail("unknown atom type %d", a.Type)
	}
}

// ip decodes a 4- or 16-byte address.
func (d *decoder) ip(v6 bool) netip.Addr {
	if v6 {
		if b := d.take(16); b != nil {
			return netip.AddrFrom16([16]byte(b))
		}
	} else if b := d.take(4); b != nil {
		return netip.AddrFrom4([4]byte(b))
	}
	return netip.Addr{}
}

// prefix decodes an address and its bit count.
func (d *decoder) prefix(v6 bool) netip.Prefix {
	addr := d.ip(v6)
	bits := int(d.u8())
	if d.err != nil {
		return netip.Prefix{}
	}
	if bits > addr.BitLen() {
		d.fail("prefix of %d bits on %v", bits, addr)
		return netip.Prefix{}
	}
	return netip.PrefixFrom(addr, bits)
}

// route decodes a route atom's value. The interface name is interned like
// an atom name (a router has a handful), so a route costs no allocation.
func (d *decoder) route(a *Atom) {
	flags := d.u8()
	if flags&^routeFlagsMask != 0 || (flags&routeNexthop6 != 0 && flags&routeHasNexthop == 0) {
		d.fail("route flags %#x", flags)
		return
	}
	a.NetVal = d.prefix(flags&routeNet6 != 0)
	if flags&routeHasNexthop != 0 {
		a.AddrVal = d.ip(flags&routeNexthop6 != 0)
	}
	a.IntVal = int64(d.u32())
	a.TextVal = d.str8("")
}
