package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// planCheckpoint saves a small clustered index and returns the device and
// directory for planner tests.
func planCheckpoint(t *testing.T, dims, n int) (*MemDevice, []DirEntry) {
	t.Helper()
	ix := buildIndex(t, dims, n)
	dev := NewMemDevice()
	if err := Save(ix, dev); err != nil {
		t.Fatal(err)
	}
	dir, _, err := ReadDirectory(dev)
	if err != nil {
		t.Fatal(err)
	}
	return dev, dir
}

// checkRuns verifies the planner's structural contract over any directory:
// every requested cluster is covered by exactly one run, fully inside the
// run's byte range, and the bytes of the run at the region's offset are
// identical to an individual region read.
func checkRuns(t *testing.T, dev Device, dir []DirEntry, clusters []int32, dims int, runs []ReadRun) {
	t.Helper()
	covered := 0
	for _, run := range runs {
		if run.N <= 0 || run.First != covered {
			t.Fatalf("runs misordered: %+v (covered %d)", run, covered)
		}
		covered += run.N
		buf := make([]byte, run.Bytes)
		if _, err := dev.ReadAt(buf, run.Offset); err != nil {
			t.Fatalf("run read: %v", err)
		}
		for k := 0; k < run.N; k++ {
			e := dir[clusters[run.First+k]]
			lo, hi := e.Offset-run.Offset, e.Offset-run.Offset+int64(e.RegionBytes(dims))
			if lo < 0 || hi > run.Bytes {
				t.Fatalf("region [%d,%d) outside run %+v", lo, hi, run)
			}
			direct := make([]byte, e.RegionBytes(dims))
			if _, err := dev.ReadAt(direct, e.Offset); err != nil {
				t.Fatalf("direct read: %v", err)
			}
			if !bytes.Equal(buf[lo:hi], direct) {
				t.Fatalf("coalesced bytes differ from individual read for cluster %d", clusters[run.First+k])
			}
		}
	}
	if covered != len(clusters) {
		t.Fatalf("runs cover %d of %d clusters", covered, len(clusters))
	}
}

func TestPlanReadRunsOnCheckpoint(t *testing.T) {
	dev, dir := planCheckpoint(t, 4, 3000)
	if len(dir) < 4 {
		t.Fatalf("need a multi-cluster checkpoint, got %d", len(dir))
	}
	all := make([]int32, len(dir))
	for i := range all {
		all[i] = int32(i)
	}
	// Regions are laid out back to back: selecting every cluster with any
	// non-negative gap must coalesce into exactly one run.
	runs := PlanReadRuns(dir, append([]int32(nil), all...), 4, 0, nil)
	if len(runs) != 1 || runs[0].N != len(dir) {
		t.Fatalf("adjacent regions must form one run: %+v", runs)
	}
	checkRuns(t, dev, dir, all, 4, runs)

	// Coalescing disabled: one run per cluster, still byte-identical.
	sorted := append([]int32(nil), all...)
	runs = PlanReadRuns(dir, sorted, 4, -1, nil)
	if len(runs) != len(dir) {
		t.Fatalf("disabled coalescing must not merge: %d runs for %d clusters", len(runs), len(dir))
	}
	checkRuns(t, dev, dir, sorted, 4, runs)

	// Random subsets at assorted gaps, including shuffled input order.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var subset []int32
		for i := range dir {
			if rng.Intn(3) == 0 {
				subset = append(subset, int32(i))
			}
		}
		if len(subset) == 0 {
			continue
		}
		rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		maxGap := int64(rng.Intn(3000)) - 1
		runs := PlanReadRuns(dir, subset, 4, maxGap, nil)
		checkRuns(t, dev, dir, subset, 4, runs)
		if maxGap >= 0 {
			// Gap bound respected: consecutive regions inside one run
			// never skip more than maxGap bytes.
			for _, run := range runs {
				for k := 1; k < run.N; k++ {
					prev := dir[subset[run.First+k-1]]
					cur := dir[subset[run.First+k]]
					if gap := cur.Offset - (prev.Offset + int64(prev.RegionBytes(4))); gap > maxGap {
						t.Fatalf("run bridges gap %d > maxGap %d", gap, maxGap)
					}
				}
			}
		}
	}
}

// FuzzPlanReadRuns synthesizes arbitrary directories (random offsets and
// capacities — including overlapping and duplicated regions, which a
// corrupt directory could present) over a random device image and checks
// the planner's contract: full coverage, in-run containment, and coalesced
// bytes identical to individual reads.
func FuzzPlanReadRuns(f *testing.F) {
	f.Add(int64(1), uint8(6), int64(64), uint8(2))
	f.Add(int64(2), uint8(1), int64(-1), uint8(1))
	f.Add(int64(3), uint8(12), int64(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nClusters uint8, maxGap int64, dims uint8) {
		if nClusters == 0 || nClusters > 32 {
			t.Skip()
		}
		d := int(dims%4) + 1
		rng := rand.New(rand.NewSource(seed))
		if maxGap > 1<<20 {
			maxGap = maxGap % (1 << 20)
		}
		// Synthesize a directory over a shared byte image. Offsets are
		// random (sometimes overlapping), capacities small.
		img := make([]byte, 1<<16)
		rng.Read(img)
		dev := NewMemDevice()
		if _, err := dev.WriteAt(img, 0); err != nil {
			t.Fatal(err)
		}
		dir := make([]DirEntry, nClusters)
		for i := range dir {
			capacity := rng.Intn(40) + 1
			size := regionSize(capacity, d)
			off := rng.Int63n(int64(len(img) - size))
			dir[i] = DirEntry{Count: rng.Intn(capacity + 1), Capacity: capacity, Offset: off}
		}
		var clusters []int32
		for i := range dir {
			if rng.Intn(2) == 0 {
				clusters = append(clusters, int32(i))
			}
		}
		if len(clusters) == 0 {
			clusters = []int32{0}
		}
		runs := PlanReadRuns(dir, clusters, d, maxGap, nil)
		checkRuns(t, dev, dir, clusters, d, runs)
	})
}

func TestReadRegionIntoReusesBuffers(t *testing.T) {
	dev, dir := planCheckpoint(t, 3, 1500)
	var ids []uint32
	var data []float32
	for _, e := range dir {
		wantIDs, wantData, err := ReadRegion(dev, e, 3)
		if err != nil {
			t.Fatal(err)
		}
		ids, data, err = ReadRegionInto(dev, e, 3, ids[:0], data[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(wantIDs) || len(data) != len(wantData) {
			t.Fatalf("shape mismatch: %d/%d ids, %d/%d data", len(ids), len(wantIDs), len(data), len(wantData))
		}
		for i := range ids {
			if ids[i] != wantIDs[i] {
				t.Fatal("ids differ from ReadRegion")
			}
		}
		for i := range data {
			if data[i] != wantData[i] {
				t.Fatal("data differs from ReadRegion")
			}
		}
	}
	// Steady state: with warm buffers and a warm pool the read allocates
	// nothing.
	e := dir[0]
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		ids, data, err = ReadRegionInto(dev, e, 3, ids[:0], data[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadRegionInto allocates %.1f per call, want 0", allocs)
	}
}

// TestDecodeRegionColumnsMatchesReadRegion checks the paged column decoder
// against the row-major ReadRegion on random region images whose
// coordinates include NaNs with payloads, ±Inf, −0 and denormals, with
// Count < Capacity and decode ranges of every alignment — every float must
// come out bit-identical — and that CheckRegionImage rejects a corrupt or
// truncated image.
func TestDecodeRegionColumnsMatchesReadRegion(t *testing.T) {
	specials := []uint32{
		0x7FC00000, 0x7FC12345, 0xFFA00001, 0x7F800001, // NaNs with payloads, quiet and signalling
		0x7F800000, 0xFF800000, // ±Inf
		0x80000000, 0x00000000, // −0, +0
		0x00000001, 0x807FFFFF, 0x00400000, // denormals
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		dims := 1 + rng.Intn(17)
		capacity := 1 + rng.Intn(150)
		count := rng.Intn(capacity + 1)
		img := make([]byte, regionSize(capacity, dims))
		for i := 0; i < len(img); i += 4 {
			v := rng.Uint32()
			if i >= capacity*4 && rng.Intn(3) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			binary.LittleEndian.PutUint32(img[i:], v)
		}
		const off = 4096 // regions never start at 0
		e := DirEntry{Count: count, Capacity: capacity, Offset: off, CRC: crc32.ChecksumIEEE(img)}
		dev := NewMemDevice()
		if _, err := dev.WriteAt(img, off); err != nil {
			t.Fatal(err)
		}
		wantIDs, wantData, err := ReadRegion(dev, e, dims)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckRegionImage(img, e, dims); err != nil {
			t.Fatal(err)
		}
		// Decode in random chunks, each into its own column block.
		for first := 0; first < count; {
			n := min(count-first, 1+rng.Intn(40))
			stride := n + rng.Intn(8)
			ids := make([]uint32, n)
			cols := make([]float32, 2*dims*stride)
			DecodeRegionColumns(img, e, dims, first, ids, cols, stride)
			for k := 0; k < n; k++ {
				m := first + k
				if ids[k] != wantIDs[m] {
					t.Fatalf("trial %d: member %d id %d, want %d", trial, m, ids[k], wantIDs[m])
				}
				for d := 0; d < dims; d++ {
					lo, hi := cols[2*d*stride+k], cols[(2*d+1)*stride+k]
					wlo, whi := wantData[m*2*dims+2*d], wantData[m*2*dims+2*d+1]
					if math.Float32bits(lo) != math.Float32bits(wlo) || math.Float32bits(hi) != math.Float32bits(whi) {
						t.Fatalf("trial %d: member %d dim %d decoded %08x/%08x, want %08x/%08x", trial, m, d,
							math.Float32bits(lo), math.Float32bits(hi), math.Float32bits(wlo), math.Float32bits(whi))
					}
				}
			}
			first += n
		}
	}
	// Corruption must be detected: flip a byte, keep the stale CRC.
	dev, dir := planCheckpoint(t, 4, 2000)
	e := dir[0]
	img := make([]byte, e.RegionBytes(4))
	if _, err := dev.ReadAt(img, e.Offset); err != nil {
		t.Fatal(err)
	}
	if err := CheckRegionImage(img, e, 4); err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xFF
	if err := CheckRegionImage(img, e, 4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt image must fail the checksum, got %v", err)
	}
	// A wrong-size image must be rejected before the checksum.
	if err := CheckRegionImage(img[:len(img)-4], e, 4); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated image must be rejected, got %v", err)
	}
}
