package mem

import "testing"

func TestInstrMissLatencyLevels(t *testing.T) {
	h := New(DefaultConfig())
	lat := h.Latencies()
	// Cold: DRAM.
	if got := h.InstrMiss(1); got != lat.DRAM {
		t.Errorf("cold instruction miss latency = %d, want %d", got, lat.DRAM)
	}
	// Now resident in L2: second miss hits L2.
	if got := h.InstrMiss(1); got != lat.L2 {
		t.Errorf("warm instruction miss latency = %d, want %d", got, lat.L2)
	}
	if h.DRAMInstr != 1 || h.L2InstrHits != 1 {
		t.Errorf("counters: dram=%d l2=%d", h.DRAMInstr, h.L2InstrHits)
	}
}

func TestInstrMissL3Path(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Sets, cfg.L2Ways = 2, 1 // tiny L2 so blocks fall to L3
	h := New(cfg)
	h.InstrMiss(0)
	h.InstrMiss(2) // same L2 set, evicts 0 from L2 (L3 keeps it)
	if got := h.InstrMiss(0); got != h.Latencies().L3 {
		t.Errorf("L3 hit latency = %d, want %d", got, h.Latencies().L3)
	}
	if h.L3InstrHits != 1 {
		t.Errorf("L3 hits = %d", h.L3InstrHits)
	}
}

func TestDataAccessHierarchy(t *testing.T) {
	h := New(DefaultConfig())
	lat := h.Latencies()
	if got := h.DataAccess(1000); got != lat.DRAM {
		t.Errorf("cold data access = %d, want DRAM %d", got, lat.DRAM)
	}
	if got := h.DataAccess(1000); got != lat.L1D {
		t.Errorf("warm data access = %d, want L1D %d", got, lat.L1D)
	}
	if h.DataAccesses != 2 || h.L1DHits != 1 || h.DRAMData != 1 {
		t.Errorf("counters: %+v", *h)
	}
}

func TestInstructionAndDataShareL2(t *testing.T) {
	h := New(DefaultConfig())
	h.DataAccess(77) // fills L2 (and L1d/L3) with block 77
	if got := h.InstrMiss(77); got != h.Latencies().L2 {
		t.Errorf("instruction fetch of data-warmed block = %d, want L2 %d", got, h.Latencies().L2)
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L2Sets*cfg.L2Ways*64 != 512*1024 {
		t.Errorf("L2 capacity = %d bytes, want 512KB", cfg.L2Sets*cfg.L2Ways*64)
	}
	if cfg.L3Sets*cfg.L3Ways*64 != 2*1024*1024 {
		t.Errorf("L3 capacity = %d bytes, want 2MB", cfg.L3Sets*cfg.L3Ways*64)
	}
	if cfg.L1DSets*cfg.L1DWays*64 != 48*1024 {
		t.Errorf("L1D capacity = %d bytes, want 48KB", cfg.L1DSets*cfg.L1DWays*64)
	}
}

// TestHierarchyConfig pins the Config accessor the cpu layer uses to key
// the data-latency precompute.
func TestHierarchyConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Sets = 256
	if got := New(cfg).Config(); got != cfg {
		t.Errorf("Config() = %+v, want %+v", got, cfg)
	}
}
