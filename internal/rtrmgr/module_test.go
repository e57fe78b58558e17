package rtrmgr

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"xorp/internal/eventloop"
)

// toyProc is a process of a class the router manager has never heard of:
// it counts what the core asks of it and has one knob a reload can turn.
type toyProc struct {
	knob                  int
	begins, closes, steps int
}

func (p *toyProc) begin(*Node) error { p.begins++; return nil }

func (p *toyProc) close() { p.closes++ }

func (p *toyProc) stage(c Change) ([]txStep, string, error) {
	if c.Path[2] != "knob" || c.New == nil {
		return nil, "the toy has a knob and nothing else", nil
	}
	v, err := strconv.Atoi(c.New.Arg(0))
	if err != nil {
		return nil, "", err
	}
	return []txStep{{desc: "turn knob", apply: func() error { p.knob = v; p.steps++; return nil }}}, "", nil
}

const toyConfig = `
interfaces { eth0 { address 192.168.1.1/24; } }
static { route 10.0.0.0/8 next-hop 192.168.1.254; }
protocols { toy { knob 1; } }
`

// §8.3, the lifecycle half: the paper tests its design by adding a
// protocol without touching the core. A class defined here — a
// constructor and a stage, one descriptor, one proc — and appended to the
// table is configured under `protocols` (its knob reaches it through the
// stage at boot, as on a reload), started, killed, respawned from its
// config block, retuned by a two-phase reload, refused removal, poisons a
// transaction it dies in, and is torn down by Stop, with no non-test file
// knowing its name. The route-bearing half (an origin table for a new
// protocol, and with it stale-route retention across the respawn) waits
// for ROADMAP item 7: rib.NewProcess still builds a fixed set of origin
// tables.
func TestToyModuleLifecycle(t *testing.T) {
	var toys []*toyProc
	toy := &module{class: "toy", setup: func(*deployment, *instance, *Node) (proc, error) {
		toys = append(toys, &toyProc{})
		return toys[len(toys)-1], nil
	}}
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	r, err := newRouter(toyConfig, Options{Clock: clock, SharedLoop: true}, append(slices.Clone(modules), toy))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	if len(toys) != 1 || toys[0].begins != 1 || toys[0].knob != 1 {
		t.Fatalf("after Start: %d toys, first %+v", len(toys), toys[0])
	}
	sup, err := r.EnableSupervision(fastSup())
	if err != nil {
		t.Fatal(err)
	}
	loop := r.Loops()[0]
	respawn := func() {
		t.Helper()
		n := len(toys)
		r.SettleAll() // deliver the death event
		loop.RunFor(time.Second)
		r.SettleAll()
		if inst := r.current("toy"); len(toys) != n+1 || inst == nil || inst.proc != toys[n] || toys[n].begins != 1 {
			t.Fatalf("not respawned: %d toys (had %d), live instance %v", len(toys), n, inst)
		}
	}

	// Killed, and respawned by the supervisor from its config block.
	if err := r.KillProcess("toy"); err != nil {
		t.Fatal(err)
	}
	if toys[0].closes != 1 || r.current("toy") != nil {
		t.Fatalf("after kill: closes = %d, live instance %v", toys[0].closes, r.current("toy"))
	}
	if err := r.KillProcess("toy"); err == nil || !strings.Contains(err.Error(), "no running toy process") {
		t.Fatalf("second kill: %v", err)
	}
	respawn()
	if deaths, respawns, givenUp := sup.Stats("toy"); deaths != 1 || respawns != 1 || givenUp {
		t.Fatalf("stats = %d deaths, %d respawns, givenUp=%v", deaths, respawns, givenUp)
	}

	// Retuned by a two-phase reload, in place.
	if err := r.Reload(strings.Replace(toyConfig, "knob 1", "knob 2", 1)); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if toys[1].knob != 2 || toys[1].steps != 2 || len(toys) != 2 || r.Generation() != 2 {
		t.Fatalf("after reload: %+v, %d toys, generation %d", toys[1], len(toys), r.Generation())
	}
	// Its own nack reaches the operator; its removal never reaches it.
	err = r.Reload(strings.Replace(toyConfig, "knob 1;", "knob 2; lever 1;", 1))
	if err == nil || !strings.Contains(err.Error(), "rejected by toy: protocols / toy / lever: the toy has a knob") {
		t.Fatalf("unknown statement: %v", err)
	}
	err = r.Reload(strings.Replace(toyConfig, "toy { knob 1; }", "", 1))
	if err == nil || !strings.Contains(err.Error(), "adding or removing the toy process requires a restart") {
		t.Fatalf("removal: %v", err)
	}

	// Killed between the RIB's commit and its own, it poisons the
	// transaction: the static route is rolled back, the knob unturned.
	r.txHooks = TxHooks{BetweenCommits: func(class string) {
		if class == "toy" {
			if err := r.KillProcess("toy"); err != nil {
				t.Errorf("kill: %v", err)
			}
		}
	}}
	err = r.Reload(strings.NewReplacer("knob 1", "knob 3", "route 10.0.0.0/8", "route 10.77.0.0/16").Replace(toyConfig))
	if err == nil || !strings.Contains(err.Error(), "participant toy killed mid-transaction") || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("reload across a kill: %v", err)
	}
	r.txHooks = TxHooks{}
	r.SettleAll()
	if e, ok := r.FIB.Lookup(mustA("10.77.1.1")); ok && e.Net == mustP("10.77.0.0/16") {
		t.Fatal("the rolled-back static route is still installed")
	}
	if r.Generation() != 2 || r.classConfig("toy").Leaf("knob") != "2" {
		t.Fatalf("generation %d, knob %s after the aborted reload", r.Generation(), r.classConfig("toy").Leaf("knob"))
	}
	respawn()
	if toys[2].knob != 2 {
		t.Fatalf("respawned with knob %d, the running config says 2", toys[2].knob)
	}

	r.Stop()
	if toys[2].closes != 1 {
		t.Fatalf("Stop closed the toy %d times", toys[2].closes)
	}
}
