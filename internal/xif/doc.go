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
//     compiler enforces handler signatures). A call is checked against
//     its method's declaration once, where it arrives, before the
//     handler runs: the binding runs Method.CheckArgs, the check the
//     stubs run before they send, and a missing, mistyped or undeclared
//     argument is xrl.CodeBadArgs. The handler then reads the checked
//     arguments through a reader (reader.go) whose reads cannot fail —
//     an optional argument left out reads as zero, and a read of a name
//     or type the method does not declare panics, so the conformance
//     test, which drives every bound method, catches it. What the
//     handlers still check is value beyond type: a protocol name, a
//     policy tag, a route list's items. The adapters are hand-written
//     and reflection-free, unknown methods are xrl.CodeNoSuchMethod,
//     and the hot batch paths (rib add_routes4, fti add_entries4) decode
//     into a single slice per call so they stay allocation-minimal.
//     Every adapter takes what it needs out of the xrl.Args by value
//     before calling the server, which is what xipc's rule that a
//     handler's arguments die with the call asks for; none keeps the
//     argument slice. The same rule covers the run a route server is
//     handed: it is decoded into a slice the binding reuses, so a server
//     must copy out what it keeps.
//
//   - *Client (e.g. RIBClient, FTIClient, FEAUDPClient) is the
//     generated-style client stub: methods like AddRoutes4(proto, run,
//     done) take Go values, own the atom layout, and send through
//     xipc.Router. Route methods take runs, and a run of any length,
//     one included, goes as the list XRL. Call sites never hand-roll
//     xrl.New argument lists; the wire encoding produced by a stub is
//     pinned byte-for-byte against the legacy hand-built XRLs by the
//     wire-compatibility oracle in xif_test.go. A stub whose method
//     declares return atoms checks the reply against them once
//     (Spec.reply) and decodes it with the same reader: a reply that
//     breaks the declaration reaches the callback as xrl.CodeBadArgs,
//     never as zero values and no error.
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
// Every command carries its interface version (Spec.Version, as in
// "rib/1.0/add_routes4"), and a Spec's stubs and bindings speak that one
// version. A target registers its commands with the Finder as its
// bindings name them, and the Finder resolves a command exactly as the
// caller composed it: a caller of rib/1.0 and a target that implements
// only rib/1.1 meet as xrl.CodeResolveFailed naming the command asked
// for, before any handler runs.
//
// Naming note: XORP's finder_event_observer.xif corresponds to
// FinderEventSpec here, which keeps this reproduction's wire name
// finder_client/1.0; the common/0.1 target introspection interface is
// bound automatically on every target created with NewTarget.
//
// The root package's arch_test.go keeps the layer load-bearing: its
// "xif drift" check fails on any non-test code registering handlers with
// raw Target.Register, composing calls with xrl.New or naming a
// per-route wire method, which must go through a Spec and its stub; and
// its "xif reads" check fails, inside this package, on an xrl.Args
// method that can fail, or a Get that drops whether the atom is there,
// outside reader.go.
package xif
