// Package xif is the typed XRL interface layer: the reproduction of the
// paper's §6 interface-specification design, where every inter-process
// interface is *declared* once and both sides of the IPC are checked
// against the declaration.
//
// XORP ships .xif IDL files and generates three artifacts from each:
// the interface description, a typed client stub class, and a target
// base class that dispatches onto virtual handler methods. This package
// is the Go equivalent, hand-written in the generated style:
//
//   - Spec (spec.go) is the .xif file: one declarative value per
//     interface (RIBSpec, FTISpec, FEAUDPSpec, FinderSpec, ProfileSpec,
//     BGPSpec, Redist4Spec, CommonSpec, ...) listing each method's
//     named, typed argument and return atoms. The package registry
//     (Define/Lookup/All) makes the full interface catalogue available
//     to tools — cmd/call_xrl uses it to typecheck calls client-side
//     and print per-method usage.
//
//   - Bind* (e.g. BindRIB) is the target base class: it wires a typed
//     Go server interface (e.g. RIBServer) onto a xipc.Target,
//     validating at registration time that every spec method is bound
//     (an incomplete binding panics at process startup, and the Go
//     compiler enforces handler signatures). The adapters are
//     hand-written and reflection-free: argument mismatches become
//     xrl.CodeBadArgs, unknown methods xrl.CodeNoSuchMethod, and the
//     hot batch paths (rib add_routes4, fti add_entries4) decode into a
//     single slice per call so they stay allocation-minimal. An argument
//     the spec marks Optional is read through xrl.Args.Optional: left
//     out it costs nothing, sent with the wrong type it is CodeBadArgs —
//     never mistaken for absent. Every adapter takes what it needs out
//     of the xrl.Args by value before calling the server, which is what
//     xipc's rule that a handler's arguments die with the call asks for;
//     none keeps the argument slice. The same rule covers the run a
//     route server is handed: the single-route handlers (add_route4,
//     add_entry4, ...) decode into a one-element slice the binding
//     reuses and call the list server method, so a server sees runs
//     only and must copy out what it keeps.
//
//   - *Client (e.g. RIBClient, FTIClient, FEAUDPClient) is the
//     generated-style client stub: methods like AddRoutes4(proto, run,
//     done) take Go values, own the atom layout, and send through
//     xipc.Router. Route methods take runs, and the stub — not the
//     caller — picks the wire form: a run of one goes as the
//     single-route XRL, anything longer as the list. Call sites never
//     hand-roll xrl.New argument lists; the wire encoding produced by a
//     stub is pinned byte-for-byte against the legacy hand-built XRLs
//     by the wire-compatibility oracle in xif_test.go.
//
// Routes cross the list XRLs typed (routeatom.go): an add_routes4 or
// add_entries4 item is one xrl route atom — prefix, next hop, metric,
// interface, encoded and decoded without a per-route allocation — and a
// delete_routes4 or delete_entries4 item an ipv4net/ipv6net atom. Their
// textual values, "net nexthop metric ifname" with "-" for an absent
// field and the bare prefix, are what call_xrl and the spec samples
// write; textual lists being flat, the handlers take a txt item holding
// that text for the same atom.
//
// Interface versioning rides the same declarations: each Spec lists the
// versions its stubs can speak (Compatible), stub constructors advertise
// them on their Router, and the Finder records every target's
// implemented interface versions at registration. Resolution then picks
// the highest mutually supported version and rewrites the command, so a
// rolling upgrade where caller and callee disagree fails with a clear
// xrl.CodeBadVersion ("target implements rib/1.1; caller speaks 1.0")
// instead of a silent no-such-method.
//
// Naming note: XORP's finder_event_observer.xif corresponds to
// FinderEventSpec here, which keeps this reproduction's wire name
// finder_client/1.0; the common/0.1 target introspection interface is
// bound automatically on every target created with NewTarget.
//
// The drift gate under xif/lint keeps the layer load-bearing: any
// non-test code registering handlers with raw Target.Register,
// composing calls with xrl.New or naming a single-route wire method
// fails CI and must go through a Spec and its stub.
package xif
