package diskengine

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"accluster/internal/core"
	"accluster/internal/geom"
	"accluster/internal/store"
)

// TestOpenCorruptHeaderClassified pins the error taxonomy on the direct
// disk query path: damage in the header or directory — the only parts Open
// touches — must fail with an error wrapping store.ErrCorrupt, so callers
// can distinguish bit-rot from transient I/O trouble.
func TestOpenCorruptHeaderClassified(t *testing.T) {
	_, dev := buildCheckpoint(t, 3, 400)
	// Sweep the header and the start of the directory; the clean open is
	// validated by every other test in the package.
	for off := int64(0); off < 96; off += 7 {
		if err := dev.Corrupt(off); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dev)
		if uerr := dev.Corrupt(off); uerr != nil {
			t.Fatal(uerr)
		}
		if err == nil {
			t.Fatalf("open with flipped byte %d succeeded", off)
		}
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("flip at %d: error not classified as ErrCorrupt: %v", off, err)
		}
	}
	// And the image is pristine again after undoing the flips.
	if _, err := Open(dev); err != nil {
		t.Fatalf("restored image fails to open: %v", err)
	}
}

// TestQueryRegionRotClassified pins read-path verification on the uncached
// engine: a region rotted after open is caught by the per-region checksum
// when a query explores it, and the error is classified as ErrCorrupt.
func TestQueryRegionRotClassified(t *testing.T) {
	_, dev := buildCheckpoint(t, 2, 600)
	eng, err := OpenConfig(dev, Config{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	size, _ := dev.Size()
	// Rot a byte late in the file — inside some cluster region.
	if err := dev.Corrupt(size - 64); err != nil {
		t.Fatal(err)
	}
	// A full-space query explores every cluster and must hit the rot.
	full := geom.Rect{Min: []float32{0, 0}, Max: []float32{1, 1}}
	err = eng.Search(full, geom.Intersects, func(uint32) bool { return true })
	if err == nil {
		t.Fatal("query over rotted region succeeded")
	}
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("rot error not classified: %v", err)
	}
}

// TestResealedHostileDirectoryBounded pins the directory bounds behind the
// checksums: a checkpoint whose cluster 0 claims a capacity of 1<<30 slots
// — with the directory and header checksums re-sealed, so only the
// structural checks can catch it — must fail diskengine.Open, store.Load
// and store.Verify with ErrCorrupt, and none of them may allocate more than
// a small multiple of the file size on the way.
func TestResealedHostileDirectoryBounded(t *testing.T) {
	ix, _ := buildCheckpoint(t, 3, 400)
	src := store.NewMemDevice()
	if err := store.Save(ix, src); err != nil {
		t.Fatal(err)
	}
	size, _ := src.Size()
	img := make([]byte, size)
	if _, err := src.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	// Version-2 layout: a 40-byte header whose bytes 16..20 hold the
	// directory length, 20..24 the directory CRC and 36..40 the header
	// CRC; the directory follows, with cluster 0's capacity at byte 8.
	const headerV2 = 40
	dirLen := binary.LittleEndian.Uint32(img[16:])
	binary.LittleEndian.PutUint32(img[headerV2+8:], 1<<30)
	binary.LittleEndian.PutUint32(img[20:], crc32.ChecksumIEEE(img[headerV2:headerV2+dirLen]))
	binary.LittleEndian.PutUint32(img[36:], crc32.ChecksumIEEE(img[:36]))
	dev := store.NewMemDevice()
	if _, err := dev.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"diskengine.Open", func() error { _, err := Open(dev); return err }},
		{"store.Load", func() error { _, err := store.Load(dev, core.Config{}); return err }},
		{"store.Verify", func() error { return store.Verify(dev) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.run()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("%s: error not classified as ErrCorrupt: %v", c.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*uint64(size)+64<<10 {
			t.Fatalf("%s allocated %d bytes rejecting a %d-byte file", c.name, alloc, size)
		}
	}
}
