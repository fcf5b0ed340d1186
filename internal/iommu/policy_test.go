package iommu

import (
	"testing"

	"dmafault/internal/layout"
	"dmafault/internal/sim"
)

func TestSetFlushPolicyTimeout(t *testing.T) {
	u, _, clk := newUnit(t, Deferred)
	u.SetFlushPolicy(2*sim.Millisecond, 0)
	v := IOVA(IOVABase)
	if err := u.Map(nicDev, v, 7, PermBidir); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(nicDev, v, true); err != nil {
		t.Fatal(err)
	}
	if err := u.Unmap(nicDev, v); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1 * sim.Millisecond)
	if _, err := u.Translate(nicDev, v, true); err != nil {
		t.Fatal("window closed before the shortened timeout")
	}
	clk.Advance(1*sim.Millisecond + 1)
	if _, err := u.Translate(nicDev, v, true); err == nil {
		t.Fatal("shortened timeout not honored")
	}
}

func TestSetFlushPolicyQueueLimit(t *testing.T) {
	u, d, _ := newUnit(t, Deferred)
	u.SetFlushPolicy(0, 4)
	for i := 0; i < 4; i++ {
		v := IOVA(IOVABase) + IOVA(i*layout.PageSize)
		if err := u.Map(nicDev, v, layout.PFN(i+1), PermRead); err != nil {
			t.Fatal(err)
		}
		if err := u.Unmap(nicDev, v); err != nil {
			t.Fatal(err)
		}
	}
	if d.PendingInvalidations() != 0 {
		t.Errorf("queue not flushed at the custom limit: %d pending", d.PendingInvalidations())
	}
	if u.Stats().GlobalFlushes != 1 {
		t.Errorf("GlobalFlushes = %d", u.Stats().GlobalFlushes)
	}
}

func TestOnFaultHook(t *testing.T) {
	u, _, _ := newUnit(t, Strict)
	var got *Fault
	u.OnFault = func(f *Fault) { got = f }
	if _, err := u.Translate(nicDev, IOVABase, false); err == nil {
		t.Fatal("unmapped translate succeeded")
	}
	if got == nil || got.Dev != nicDev || got.Perm != PermNone {
		t.Errorf("fault hook got %+v", got)
	}
}
