package policy

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"xorp/internal/bgp"
	"xorp/internal/ospf"
	"xorp/internal/rib"
	"xorp/internal/route"
)

// bgpRoute adapts a bgp.Route for policy execution. attrs is the route's own
// set until a mutation makes it a copy (stage routes are immutable, §5.1).
type bgpRoute struct {
	r     *bgp.Route
	attrs *bgp.PathAttrs
}

func (b *bgpRoute) Get(attr string) (Value, bool) {
	switch attr {
	case "net":
		return NetVal(b.r.Net), true
	case "med":
		if !b.attrs.HasMED {
			return Value{}, false
		}
		return Num(uint64(b.attrs.MED)), true
	case "localpref":
		if !b.attrs.HasLocalPref {
			return Num(100), true // the RFC default, as Route.LocalPrefOrDefault
		}
		return Num(uint64(b.attrs.LocalPref)), true
	case "as-path-len":
		return Num(uint64(b.attrs.ASPath.Length())), true
	case "as-path":
		return Str(b.attrs.ASPath.String()), true
	case "origin":
		return Num(uint64(b.attrs.Origin)), true
	case "nexthop":
		return Str(b.attrs.NextHop.String()), true
	case "neighbor":
		if b.r.Src == nil {
			return Str("local"), true
		}
		return Str(b.r.Src.Addr.String()), true
	case "protocol":
		if b.r.Src == nil {
			return Str("local"), true
		}
		if b.r.Src.IBGP {
			return Str("ibgp"), true
		}
		return Str("ebgp"), true
	}
	return Value{}, false
}

func (b *bgpRoute) mutable() *bgp.PathAttrs {
	if b.attrs == b.r.Attrs {
		b.attrs = b.r.Attrs.Clone()
	}
	return b.attrs
}

func (b *bgpRoute) Set(attr string, v Value) error {
	switch attr {
	case "med":
		a := b.mutable()
		a.MED = uint32(v.Num)
		a.HasMED = true
	case "localpref":
		a := b.mutable()
		a.LocalPref = uint32(v.Num)
		a.HasLocalPref = true
	case "origin":
		if v.Num > bgp.OriginIncomplete {
			return fmt.Errorf("policy: origin %d out of range", v.Num)
		}
		b.mutable().Origin = uint8(v.Num)
	case "community":
		b.mutable().Communities = append(b.mutable().Communities, uint32(v.Num))
	case "nexthop":
		a, err := netip.ParseAddr(valueString(v))
		if err != nil {
			return fmt.Errorf("policy: bad nexthop %q", valueString(v))
		}
		b.mutable().NextHop = a
	default:
		return fmt.Errorf("policy: cannot set BGP attribute %q", attr)
	}
	return nil
}

// BGPFilter compiles a policy into a BGP filter-bank filter: rejected
// routes drop, accepted/passed routes continue (possibly modified).
func BGPFilter(p *Policy) bgp.Filter {
	return bgp.FilterFunc(func(r *bgp.Route) *bgp.PathAttrs {
		ad := &bgpRoute{r: r, attrs: r.Attrs}
		act, err := p.Execute(ad)
		if err != nil || act == ActionReject {
			return nil
		}
		return ad.attrs
	})
}

// ribEntry adapts a route.Entry.
type ribEntry struct {
	e route.Entry
}

func (re *ribEntry) Get(attr string) (Value, bool) {
	switch attr {
	case "net":
		return NetVal(re.e.Net), true
	case "metric":
		return Num(uint64(re.e.Metric)), true
	case "ad", "admin-distance":
		return Num(uint64(re.e.AdminDistance)), true
	case "protocol":
		return Str(re.e.Protocol.String()), true
	case "ifname":
		return Str(re.e.IfName), true
	case "nexthop":
		if !re.e.NextHop.IsValid() {
			return Value{}, false
		}
		return Str(re.e.NextHop.String()), true
	case "tag":
		parts := make([]string, len(re.e.PolicyTags))
		for i, tg := range re.e.PolicyTags {
			parts[i] = strconv.FormatUint(uint64(tg), 10)
		}
		return Str(strings.Join(parts, " ")), true
	}
	return Value{}, false
}

func (re *ribEntry) Set(attr string, v Value) error {
	switch attr {
	case "metric":
		re.e.Metric = uint32(v.Num)
	case "tag":
		re.e.PolicyTags = re.e.PolicyTags[:0:0]
		for _, part := range strings.Fields(v.Str) {
			n, err := strconv.ParseUint(part, 10, 32)
			if err != nil {
				return fmt.Errorf("policy: bad tag %q", part)
			}
			re.e.PolicyTags = append(re.e.PolicyTags, uint32(n))
		}
	default:
		return fmt.Errorf("policy: cannot set RIB attribute %q", attr)
	}
	return nil
}

// OSPFExportFilter compiles a policy into an OSPF export filter, vetting
// SPF results on their way into the RIB. Like the BGP filter bank (and
// unlike redistribution), the forwarding path is default-pass: rejected
// routes drop, accepted/passed routes continue, possibly with a
// rewritten metric or tag list.
func OSPFExportFilter(p *Policy) ospf.Filter {
	return func(e route.Entry) *route.Entry {
		ad := &ribEntry{e: e}
		act, err := p.Execute(ad)
		if err != nil || act == ActionReject {
			return nil
		}
		out := ad.e
		return &out
	}
}

// RIBRedistFilter compiles a policy into a RIB redistribution filter. A
// route is redistributed only if some term accepts it (redistribution is
// opt-in, unlike the forwarding path).
func RIBRedistFilter(p *Policy) rib.RedistFilter {
	return func(e route.Entry) *route.Entry {
		ad := &ribEntry{e: e}
		act, err := p.Execute(ad)
		if err != nil || act != ActionAccept {
			return nil
		}
		out := ad.e
		return &out
	}
}
