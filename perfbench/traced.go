package main

import "os"

// traced is the traced run. Whatever --workload names, it replays every
// layer, so one invocation yields every per-layer metric:
//
//	prepare-cold-long  the prepare stages component by component, then a
//	                   serial cold Pipeline.Warm
//	figures-warm       the registry render with one span per entry, the
//	                   load layers, serial and gang runs, and the i-cache
//	                   and memory hierarchy replayed alone
//	serve-replay       the request script with latency per request class
//
// The named workload's timed phase also runs once more untraced; the
// difference of the two walls is the tracing overhead.
func (b *bench) traced() error {
	w := b.cfg.workload
	id, end := b.tr.begin("prepare-cold-long", 0)
	err := b.prepareLayers(id, w == "prepare-cold-long")
	end()
	if err != nil {
		return err
	}

	id, end = b.tr.begin("figures-warm", 0)
	err = b.figureLayers(id, w == "figures-warm")
	end()
	if err != nil {
		return err
	}

	id, end = b.tr.begin("serve-replay", 0)
	err = b.serveLayers(id, w == "serve-replay")
	end()
	return err
}

// figureLayers renders the registry traced in a child over a freshly
// filled store, then replays the load and simulation layers over it.
func (b *bench) figureLayers(parent int, overhead bool) error {
	store := b.scratch("store")
	if _, err := b.fillStore(store, b.cfg.n); err != nil {
		return err
	}
	defer os.RemoveAll(store)
	pr, err := b.runChild(phaseArgs{name: "figures", store: store, n: b.cfg.n, workers: b.cfg.workers, trace: true})
	if err != nil {
		return err
	}
	b.tr.adopt(pr.Spans, parent)
	b.checkFigures(pr)
	if overhead {
		plain, err := b.runChild(phaseArgs{name: "figures", store: store, n: b.cfg.n, workers: b.cfg.workers})
		if err != nil {
			return err
		}
		b.checkFigures(plain)
		b.res.set("trace.overhead_s", "s", seconds(pr.WallNS-plain.WallNS))
	}
	return b.simLayers(store, parent)
}
