package xif

import (
	"net/netip"
	"time"

	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// BGPSpec declares bgp/1.0: process configuration and route origination.
var BGPSpec = Define(Spec{
	Name:    "bgp",
	Version: "1.0",
	Methods: []Method{
		{Name: "get_bgp_version", Rets: []Arg{{Name: "version", Type: xrl.TypeU32}}},
		{Name: "local_config", Rets: []Arg{
			{Name: "as", Type: xrl.TypeU32},
			{Name: "id", Type: xrl.TypeIPv4},
		}},
		{Name: "add_peer", Args: []Arg{
			{Name: "name", Type: xrl.TypeText},
			{Name: "local_addr", Type: xrl.TypeIPv4},
			{Name: "peer_addr", Type: xrl.TypeIPv4},
			{Name: "as", Type: xrl.TypeU32},
			{Name: "dial", Type: xrl.TypeText, Optional: true},
			{Name: "holdtime", Type: xrl.TypeU32, Optional: true},
			{Name: "group", Type: xrl.TypeText, Optional: true},
		}},
		{Name: "enable_peer", Args: []Arg{{Name: "name", Type: xrl.TypeText}}},
		{Name: "disable_peer", Args: []Arg{{Name: "name", Type: xrl.TypeText}}},
		{Name: "peer_state", Args: []Arg{{Name: "name", Type: xrl.TypeText}},
			Rets: []Arg{{Name: "state", Type: xrl.TypeText}}},
		{Name: "originate_route4", Args: []Arg{
			{Name: "nlri", Type: xrl.TypeIPv4Net},
			{Name: "next_hop", Type: xrl.TypeIPv4},
			{Name: "med", Type: xrl.TypeU32, Optional: true},
		}},
		{Name: "withdraw_route4", Args: []Arg{
			{Name: "nlri", Type: xrl.TypeIPv4Net},
		}},
	},
})

// BGPPeerConfig carries add_peer's arguments.
type BGPPeerConfig struct {
	Name      string
	LocalAddr netip.Addr
	PeerAddr  netip.Addr
	PeerAS    uint16
	DialAddr  string
	HoldTime  time.Duration
	// Group names a peer group whose members share one output branch and
	// a single shared encode per outbound UPDATE ("" = no group).
	Group string
}

// BGPServer is the typed implementation contract for bgp/1.0.
type BGPServer interface {
	GetBGPVersion() (uint32, error)
	LocalConfig() (as uint32, id netip.Addr, err error)
	AddPeer(cfg BGPPeerConfig) error
	EnablePeer(name string) error
	DisablePeer(name string) error
	PeerState(name string) (string, error)
	OriginateRoute4(nlri netip.Prefix, nexthop netip.Addr, med uint32) error
	WithdrawRoute4(nlri netip.Prefix) error
}

// BindBGP wires a BGPServer onto t as bgp/1.0.
func BindBGP(t *xipc.Target, s BGPServer) {
	b := newBinding(t, BGPSpec)
	b.handle("get_bgp_version", func(reader) (xrl.Args, error) {
		v, err := s.GetBGPVersion()
		if err != nil {
			return nil, err
		}
		return xrl.Args{xrl.U32("version", v)}, nil
	})
	b.handle("local_config", func(reader) (xrl.Args, error) {
		as, id, err := s.LocalConfig()
		if err != nil {
			return nil, err
		}
		return xrl.Args{xrl.U32("as", as), xrl.Addr("id", id)}, nil
	})
	b.handle("add_peer", func(in reader) (xrl.Args, error) {
		return nil, s.AddPeer(BGPPeerConfig{
			Name:      in.text("name"),
			LocalAddr: in.addr("local_addr"),
			PeerAddr:  in.addr("peer_addr"),
			PeerAS:    uint16(in.u32("as")),
			DialAddr:  in.text("dial"),
			HoldTime:  time.Duration(in.u32("holdtime")) * time.Second,
			Group:     in.text("group"),
		})
	})
	b.handle("enable_peer", func(in reader) (xrl.Args, error) {
		return nil, s.EnablePeer(in.text("name"))
	})
	b.handle("disable_peer", func(in reader) (xrl.Args, error) {
		return nil, s.DisablePeer(in.text("name"))
	})
	b.handle("peer_state", func(in reader) (xrl.Args, error) {
		state, err := s.PeerState(in.text("name"))
		if err != nil {
			return nil, err
		}
		return xrl.Args{xrl.Text("state", state)}, nil
	})
	b.handle("originate_route4", func(in reader) (xrl.Args, error) {
		return nil, s.OriginateRoute4(in.net("nlri"), in.addr("next_hop"), in.u32("med"))
	})
	b.handle("withdraw_route4", func(in reader) (xrl.Args, error) {
		return nil, s.WithdrawRoute4(in.net("nlri"))
	})
	b.done()
}
