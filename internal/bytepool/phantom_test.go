package bytepool

import (
	"runtime/debug"
	"strings"
	"testing"
)

// mustPanic runs f and returns its panic message, failing if f returns.
func mustPanic(t *testing.T, what string, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", what)
			}
			if s, ok := r.(string); ok {
				msg = s
			} else if e, ok := r.(error); ok {
				msg = e.Error()
			}
		}()
		f()
	}()
	return msg
}

// TestPhantomWriteFaults: the block is a read-only mapping, so a write
// through a phantom slice is a memory fault, which SetPanicOnFault turns
// into a recoverable panic instead of killing the process.
func TestPhantomWriteFaults(t *testing.T) {
	b := Phantom(4096)
	if b[100] != 0 {
		t.Fatalf("phantom byte reads %#x, want 0", b[100])
	}
	old := debug.SetPanicOnFault(true)
	defer debug.SetPanicOnFault(old)
	mustPanic(t, "write to a phantom slice", func() { b[100] = 1 })
}

// TestIsPhantomRange pins the range check: every window of the block, at
// any offset, is phantom — pipelined transfers hand the transport interior
// windows, so comparing base pointers would miss all but the first.
func TestIsPhantomRange(t *testing.T) {
	b := Phantom(1 << 20)
	for _, off := range []int{0, 1, 3, 4097, 65537, 1<<20 - 1} {
		if w := b[off:]; !IsPhantom(w) {
			t.Errorf("window at offset %d not phantom", off)
		}
		if w := b[off : off+1]; !IsPhantom(w) {
			t.Errorf("one-byte window at offset %d not phantom", off)
		}
	}
	if !IsPhantom(Phantom(PhantomMax)[PhantomMax-7:]) {
		t.Error("window at the block's last bytes not phantom")
	}
	for name, s := range map[string][]byte{
		"nil":          nil,
		"zero-cap":     b[:0:0],
		"empty at end": b[len(b):],
		"Phantom(0)":   Phantom(0),
		"heap":         make([]byte, 64),
		"pooled":       Get(1 << 20),
	} {
		if IsPhantom(s) {
			t.Errorf("%s slice reported phantom", name)
		}
	}
}

func TestPhantomBounds(t *testing.T) {
	msg := mustPanic(t, "oversized phantom", func() { Phantom(PhantomMax + 1) })
	if !strings.Contains(msg, "exceeds") {
		t.Errorf("oversized phantom panic %q does not name the bound", msg)
	}
	mustPanic(t, "negative phantom", func() { Phantom(-1) })
}

// TestPutDropsPhantom: a phantom slice of a size-class length must never
// enter the pool, or a later Get would hand out read-only memory.
func TestPutDropsPhantom(t *testing.T) {
	for i := 0; i < 8; i++ {
		Put(Phantom(1 << 20))
	}
	for i := 0; i < 8; i++ {
		b := Get(1 << 20)
		if IsPhantom(b) {
			t.Fatal("Get returned a phantom slice")
		}
		b[0], b[len(b)-1] = 1, 2 // faults if read-only
		Put(b)
	}
}

func TestCopyPhantomRules(t *testing.T) {
	p, q := Phantom(4096), Phantom(1000)
	if n := Copy(p[17:], q); n != 1000 {
		t.Fatalf("phantom->phantom copy returned %d, want 1000", n)
	}
	backed := make([]byte, 512)
	for i := range backed {
		backed[i] = byte(i)
	}
	mustPanic(t, "phantom->backed copy", func() { Copy(backed, p[3:]) })
	mustPanic(t, "backed->phantom copy", func() { Copy(p[5:], backed) })
	if n := Copy(backed[:0], p); n != 0 {
		t.Fatalf("empty copy returned %d", n)
	}
	dst := make([]byte, 600)
	if n := Copy(dst, backed); n != 512 || dst[511] != 255 {
		t.Fatalf("backed copy: n=%d last=%d", n, dst[511])
	}
}

func TestCapture(t *testing.T) {
	p := Phantom(4096)[9:]
	if c := Capture(p); !IsPhantom(c) || len(c) != len(p) {
		t.Fatal("capture of a phantom slice is not that phantom slice")
	}
	src := []byte("payload")
	c := Capture(src)
	src[0] = 'X'
	if string(c) != "payload" {
		t.Fatalf("capture aliases its source: %q", c)
	}
	Put(c)
}
