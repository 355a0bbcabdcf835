package storage

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bytepool"
	"repro/internal/sim"
)

func disk(e *sim.Engine) *Disk {
	return NewDisk(e, "d0", 100e6, 5*time.Millisecond) // 100 MB/s, 5 ms seek
}

func TestWriteReadRoundtrip(t *testing.T) {
	e := sim.NewEngine()
	d := disk(e)
	data := bytes.Repeat([]byte{0xC3}, 1<<20)
	got := make([]byte, 1<<20)
	e.Spawn("io", func(p *sim.Proc) {
		if err := d.WriteAt(p, "chk/0001", 0, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := d.ReadAt(p, "chk/0001", 0, got); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip corrupted data")
	}
	if n, err := d.Size("chk/0001"); err != nil || n != 1<<20 {
		t.Fatalf("size = %d, %v", n, err)
	}
}

func TestTiming(t *testing.T) {
	e := sim.NewEngine()
	d := disk(e)
	data := make([]byte, 100e6/10) // exactly 100 ms of wire time
	e.Spawn("io", func(p *sim.Proc) {
		d.WriteAt(p, "f", 0, data)
		want := sim.Time(105 * time.Millisecond) // 5 ms seek + 100 ms stream
		if p.Now() != want {
			t.Errorf("write finished at %v, want %v", p.Now(), want)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.TransferTime(int64(len(data))) != 105*time.Millisecond {
		t.Fatalf("TransferTime = %v", d.TransferTime(int64(len(data))))
	}
}

func TestContention(t *testing.T) {
	e := sim.NewEngine()
	d := disk(e)
	data := make([]byte, 10e6) // 100 ms each incl. seek... 10e6/100e6 = 100ms + 5ms
	for i := 0; i < 2; i++ {
		e.Spawn("w", func(p *sim.Proc) { d.WriteAt(p, "f", 0, data) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != sim.Time(210*time.Millisecond) {
		t.Fatalf("two writes finished at %v, want 210ms (FIFO disk)", e.Now())
	}
}

func TestSparseGrowthAndOffsets(t *testing.T) {
	e := sim.NewEngine()
	d := disk(e)
	e.Spawn("io", func(p *sim.Proc) {
		if err := d.WriteAt(p, "f", 100, []byte{1, 2, 3}); err != nil {
			t.Errorf("write: %v", err)
		}
		buf := make([]byte, 103)
		if err := d.ReadAt(p, "f", 0, buf); err != nil {
			t.Errorf("read: %v", err)
		}
		if buf[0] != 0 || buf[100] != 1 || buf[102] != 3 {
			t.Errorf("sparse contents wrong: %v", buf[98:])
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	e := sim.NewEngine()
	d := disk(e)
	e.Spawn("io", func(p *sim.Proc) {
		if err := d.ReadAt(p, "missing", 0, make([]byte, 1)); !errors.Is(err, ErrNotFound) {
			t.Errorf("read missing: %v", err)
		}
		if err := d.WriteAt(p, "f", -1, []byte{1}); !errors.Is(err, ErrBadRange) {
			t.Errorf("negative offset: %v", err)
		}
		d.WriteAt(p, "f", 0, []byte{1, 2})
		if err := d.ReadAt(p, "f", 1, make([]byte, 5)); !errors.Is(err, ErrBadRange) {
			t.Errorf("read past EOF: %v", err)
		}
		if _, err := d.Size("nope"); !errors.Is(err, ErrNotFound) {
			t.Errorf("size missing: %v", err)
		}
		if err := d.Remove("nope"); !errors.Is(err, ErrNotFound) {
			t.Errorf("remove missing: %v", err)
		}
		if err := d.Remove("f"); err != nil {
			t.Errorf("remove: %v", err)
		}
		if got := d.List(); len(got) != 0 {
			t.Errorf("list after remove: %v", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestList(t *testing.T) {
	e := sim.NewEngine()
	d := disk(e)
	e.Spawn("io", func(p *sim.Proc) {
		d.WriteAt(p, "b", 0, []byte{1})
		d.WriteAt(p, "a", 0, []byte{1})
		d.WriteAt(p, "c", 0, []byte{1})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	got := d.List()
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("List = %v", got)
	}
}

// TestPropOverwriteSemantics: random sequences of writes behave like a byte
// array oracle.
func TestPropOverwriteSemantics(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		e := sim.NewEngine()
		d := disk(e)
		oracle := []byte{}
		ok := true
		e.Spawn("io", func(p *sim.Proc) {
			for _, o := range ops {
				off := int64(o.Off % 4096)
				if err := d.WriteAt(p, "f", off, o.Data); err != nil {
					ok = false
					return
				}
				need := int(off) + len(o.Data)
				if len(oracle) < need {
					oracle = append(oracle, make([]byte, need-len(oracle))...)
				}
				copy(oracle[off:], o.Data)
			}
			if len(oracle) == 0 {
				return
			}
			got := make([]byte, len(oracle))
			if err := d.ReadAt(p, "f", 0, got); err != nil {
				ok = false
				return
			}
			ok = bytes.Equal(got, oracle)
		})
		return e.Run() == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPhantomFiles: a file written from phantom buffers keeps its length
// and costs the same disk time as a backed write, but holds no bytes.
// Reading it into a backed buffer would invent data, so it panics.
func TestPhantomFiles(t *testing.T) {
	e := sim.NewEngine()
	d := disk(e)
	const n = 1 << 20
	ph := bytepool.Phantom(3 * n)
	var tookW, tookR time.Duration
	var mixed any
	e.Spawn("io", func(p *sim.Proc) {
		t0 := p.Now()
		if err := d.WriteAt(p, "ckpt", 0, ph[7:7+n]); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := d.WriteAt(p, "ckpt", n, ph[n:2*n]); err != nil {
			t.Errorf("extending write: %v", err)
		}
		tookW = p.Now().Sub(t0)
		t1 := p.Now()
		if err := d.ReadAt(p, "ckpt", 0, ph[1:2*n+1]); err != nil {
			t.Errorf("read: %v", err)
		}
		tookR = p.Now().Sub(t1)
		func() {
			defer func() { mixed = recover() }()
			d.ReadAt(p, "ckpt", 0, make([]byte, 16))
		}()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if size, err := d.Size("ckpt"); err != nil || size != 2*n {
		t.Fatalf("phantom file size %d, %v; want %d", size, err, 2*n)
	}
	if want := 2 * d.TransferTime(n); tookW != want {
		t.Errorf("phantom writes took %v, backed model %v", tookW, want)
	}
	if want := d.TransferTime(2 * n); tookR != want {
		t.Errorf("phantom read took %v, backed model %v", tookR, want)
	}
	if mixed == nil {
		t.Error("reading a phantom file into a backed buffer did not panic")
	}
}
