package minipy

import (
	"testing"

	"ufork/internal/alloc"
	"ufork/internal/cap"
	"ufork/internal/core"
	"ufork/internal/kernel"
	"ufork/internal/model"
	"ufork/internal/vm"
)

// tagAt reads the validity tag of the granule at c's cursor plus off.
func tagAt(t *testing.T, p *kernel.Proc, c cap.Capability, off uint64) bool {
	t.Helper()
	va := c.Addr() + off
	pte := p.AS.Lookup(vm.VPNOf(va))
	if pte == nil {
		t.Errorf("granule %#x is not mapped", va)
		return false
	}
	tag, err := p.Kernel().Mem.TagAt(pte.Page.PFN, vm.PageOff(va))
	if err != nil {
		t.Error(err)
	}
	return tag
}

// TestNumberOverwritesStringCell: a number stored over a cell that held a
// string writes the record's kind+number header as one granule, clearing
// that granule's tag (here a stale capability planted in it), and stores
// the null capability in the object granule. The string itself, still
// named by another global, is untouched, and a forked child reads and
// rewrites the cell through the same record layout.
func TestNumberOverwritesStringCell(t *testing.T) {
	pr, err := Compile(`
cell = "hello"
keep = cell

def overwrite():
    global cell
    cell = 42

def rewrite():
    global cell
    cell = cell + 1

def get_cell():
    return cell

def get_keep():
    return keep
`)
	if err != nil {
		t.Fatal(err)
	}
	spec := kernel.HelloWorldSpec()
	spec.HeapPages, spec.AllocMetaPages = 256, 16
	k := kernel.New(kernel.Config{
		Machine:   model.UFork(2),
		Engine:    core.New(core.CopyOnPointerAccess),
		Isolation: kernel.IsolationFull,
		Frames:    1 << 14,
	})
	global := func(rt *Runtime, name string) Value {
		t.Helper()
		fn, ok := pr.FuncIndex(name)
		if !ok {
			t.Errorf("no function %s", name)
			return Value{}
		}
		v, err := rt.CallValue(fn)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		return v
	}
	if _, err := k.Spawn(spec, 0, func(p *kernel.Proc) {
		a := alloc.Attach(p)
		if err := a.Init(); err != nil {
			t.Error(err)
			return
		}
		rt, err := Install(p, a, pr)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := rt.RunMain(); err != nil {
			t.Error(err)
			return
		}
		cellSlot, _ := pr.GlobalSlot("cell")
		keepSlot, _ := pr.GlobalSlot("keep")
		cell, err := p.LoadCap(rt.globalEnv, uint64(cellSlot)*cap.GranuleSize)
		if err != nil {
			t.Error(err)
			return
		}
		keepCell, err := p.LoadCap(rt.globalEnv, uint64(keepSlot)*cap.GranuleSize)
		if err != nil {
			t.Error(err)
			return
		}
		if !tagAt(t, p, cell, valObjOff) {
			t.Error("string cell's object granule is untagged")
			return
		}
		if err := p.StoreCap(cell, valKindOff, p.DataCap); err != nil {
			t.Error(err)
			return
		}

		if _, err := rt.Call(pr, "overwrite"); err != nil {
			t.Error(err)
			return
		}
		if tagAt(t, p, cell, valKindOff) {
			t.Error("header granule kept its tag after the number's store")
		}
		if tagAt(t, p, cell, valObjOff) {
			t.Error("object granule of a number cell is tagged")
		}
		if v := global(rt, "get_cell"); !v.IsNum() || v.Float() != 42 {
			t.Errorf("cell = %+v, want 42", v)
		}
		if !tagAt(t, p, keepCell, valObjOff) {
			t.Error("the string's other cell lost its object tag")
		}
		if s, err := rt.Format(global(rt, "get_keep")); err != nil || s != "hello" {
			t.Errorf("keep = %q, %v; want hello", s, err)
		}

		if _, err := k.Fork(p, func(c *kernel.Proc) {
			crt, err := Attach(c)
			if err != nil {
				t.Error(err)
				return
			}
			if v := global(crt, "get_cell"); v.Float() != 42 {
				t.Errorf("child cell = %v, want 42", v.Float())
			}
			if _, err := crt.Call(pr, "rewrite"); err != nil {
				t.Error(err)
				return
			}
			if v := global(crt, "get_cell"); v.Float() != 43 {
				t.Errorf("child cell after rewrite = %v, want 43", v.Float())
			}
			if s, err := crt.Format(global(crt, "get_keep")); err != nil || s != "hello" {
				t.Errorf("child keep = %q, %v; want hello", s, err)
			}
			k.Exit(c, 0)
		}); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := k.Wait(p); err != nil {
			t.Error(err)
			return
		}
		if v := global(rt, "get_cell"); v.Float() != 42 {
			t.Errorf("parent cell after the child's rewrite = %v, want 42", v.Float())
		}
	}); err != nil {
		t.Fatal(err)
	}
	k.Run()
}
