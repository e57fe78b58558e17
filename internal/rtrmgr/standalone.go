package rtrmgr

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/xipc"
)

// RunProcess is the body of a cmd/xorp_<class> binary: it runs class's
// process alone — fea, rib or a class of the module table — on its own
// loop and an XRL router that listens on TCP and resolves through the
// Finder at finderAddr, configured from the file at configPath (none
// when empty), until SIGINT or SIGTERM; then it leaves the Finder and
// stops. Of opts it reads LocalAddr, BGPListen, ConsistencyChecks and
// Network.
func RunProcess(class, finderAddr, configPath string, opts Options) error {
	text, err := os.ReadFile(configPath)
	if err != nil && configPath != "" {
		return err
	}
	p, err := startProcess(class, finderAddr, string(text), opts)
	if err != nil {
		return err
	}
	fmt.Printf("xorp_%s: registered with finder at %s\n", class, finderAddr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	p.stop()
	return nil
}

// process is one process running alone.
type process struct{ inst *instance }

// startProcess builds class's process the way NewRouter builds it inside
// a router — setup, the config/0.1 agent bound on its target, boot with
// its slice of cfgText's plan, then begin — and returns it running. An
// absent block under protocols reads as an empty one.
func startProcess(class, finderAddr, cfgText string, opts Options) (*process, error) {
	cfg, err := ParseConfig(cfgText)
	if err != nil {
		return nil, err
	}
	m := lookup(append([]*module{feaModule, ribModule}, modules...), class)
	if m == nil {
		return nil, fmt.Errorf("rtrmgr: unknown process class %q", class)
	}
	block := nodeAtPath(cfg, []string{"protocols", class})
	if block == nil {
		block = &Node{Key: class}
	}
	plan, err := bootPlan(modules, cfg)
	if err != nil {
		return nil, err
	}
	d, err := newDeployment(opts)
	if err != nil {
		return nil, err
	}
	loop := eventloop.New(nil)
	xr := xipc.NewRouter(class+"_process", loop)
	if err := xr.ListenTCP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	xr.SetFinderTCP(finderAddr)
	go loop.Run()
	inst, a, err := build(m, &d, xr, block)
	p := &process{inst}
	if err == nil {
		ch := make(chan error, 1)
		boot(m, inst, a, plan[class], func(err error) {
			if err == nil {
				err = inst.proc.begin(block)
			}
			ch <- err
		})
		err = <-ch
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// stop takes the process out of the Finder, which announces its death to
// every watcher, then closes it.
func (p *process) stop() {
	done := make(chan struct{})
	finder.UnregisterTarget(p.inst.router, p.inst.class, func(error) { close(done) })
	<-done
	p.close()
}

// close is dismantle for a process running alone.
func (p *process) close() {
	p.inst.router.Close()
	if p.inst.proc != nil {
		p.inst.loop.DispatchAndWait(p.inst.proc.close)
	}
	p.inst.loop.Stop()
}
