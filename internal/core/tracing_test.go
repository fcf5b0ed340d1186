package core

import (
	"errors"
	"testing"

	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/trace"
)

func TestEnableTracingCapturesLifecycle(t *testing.T) {
	s, err := New(WithSeed(4), WithIOMMUMode(iommu.Strict))
	if err != nil {
		t.Fatal(err)
	}
	log := s.EnableTracing(256)
	if _, err := s.IOMMU.CreateDomain("nic", 1); err != nil {
		t.Fatal(err)
	}
	buf, _ := s.Mem.Slab.Kmalloc(0, 512, "io")
	va, err := s.Mapper.MapSingle(1, buf, 512, dma.FromDevice)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bus.Write(1, va, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A blocked read: WRITE-only mapping.
	if err := s.Bus.Read(1, va, make([]byte, 1)); err == nil {
		t.Fatal("read through WRITE mapping succeeded")
	}
	if err := s.Mapper.UnmapSingle(1, va, 512, dma.FromDevice); err != nil {
		t.Fatal(err)
	}
	// A benign callback dispatch.
	fn, _ := s.Kernel.FuncAddr("sock_zerocopy_callback")
	_ = s.Kernel.InvokeCallback(fn, 0) // errors fine (frees RDI=0)

	if log.CountKind(trace.EvDMAMap) != 1 || log.CountKind(trace.EvDMAUnmap) != 1 {
		t.Errorf("map/unmap events: %d/%d", log.CountKind(trace.EvDMAMap), log.CountKind(trace.EvDMAUnmap))
	}
	if log.CountKind(trace.EvDeviceWrite) != 1 || log.CountKind(trace.EvDeviceRead) != 1 {
		t.Errorf("device access events: w=%d r=%d", log.CountKind(trace.EvDeviceWrite), log.CountKind(trace.EvDeviceRead))
	}
	if log.CountKind(trace.EvFault) != 1 {
		t.Errorf("fault events = %d", log.CountKind(trace.EvFault))
	}
	if log.CountKind(trace.EvCallback) != 1 {
		t.Errorf("callback events = %d", log.CountKind(trace.EvCallback))
	}
}

func TestTracingRecordsEscalation(t *testing.T) {
	s, err := New(WithSeed(4), WithIOMMUMode(iommu.Strict))
	if err != nil {
		t.Fatal(err)
	}
	log := s.EnableTracing(0)
	// Drive a minimal escalation through the native primitives.
	prep, _ := s.Kernel.FuncAddr("prepare_kernel_cred")
	if err := s.Kernel.InvokeCallback(prep, 0); err != nil {
		t.Fatal(err)
	}
	// The fuzz-proof way to escalate legitimately is the full chain, tested
	// in kexec; here assert the hook fires via commit_creds with the token
	// by invoking the real chain machinery from an attack.
	if log.CountKind(trace.EvEscalation) != 0 {
		t.Error("premature escalation event")
	}
	var fault *iommu.Fault
	if errors.As(s.Bus.Read(99, 0, make([]byte, 1)), &fault) {
		t.Log("unattached device faults differently (expected)")
	}
}
