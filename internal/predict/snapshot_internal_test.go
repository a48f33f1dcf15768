package predict

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prodpred/internal/stochastic"
)

// TestReadImageLimit: readImage returns an image of up to limit bytes whole,
// from a stream or a file, and refuses a longer one by its limit from either.
func TestReadImageLimit(t *testing.T) {
	const limit = 100
	path := filepath.Join(t.TempDir(), "image")
	for _, n := range []int{0, 1, limit, limit + 1, 3 * limit} {
		img := strings.Repeat("x", n)
		if err := os.WriteFile(path, []byte(img), 0o600); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, rd := range map[string]io.Reader{"stream": strings.NewReader(img), "file": f} {
			data, err := readImage(rd, limit)
			switch {
			case n > limit && (err == nil || !strings.Contains(err.Error(), "100-byte limit")):
				t.Errorf("%s of %d bytes: want the limit error, got %v", name, n, err)
			case n <= limit && (err != nil || string(data) != img):
				t.Errorf("%s of %d bytes: read %d bytes, %v", name, n, len(data), err)
			}
		}
		f.Close()
	}
}

// TestReadSnapshotRefusesLedgerIDs: a snapshot's ledger IDs are outside
// input. A live tenant's image lists them ascending within [1, next id];
// one that does not — an ID above the next one to issue, which a later
// prediction would be issued again over the restored entry, an ID 0, or two
// IDs out of order — is refused. An image that keeps to it restores with
// its eviction cursor at its oldest entry.
func TestReadSnapshotRefusesLedgerIDs(t *testing.T) {
	const a, b, next = 1<<40 + 3, 1<<40 + 7, 1 << 41
	image := func(ids []uint64, next uint64) []byte {
		svc := simulatedService(t, 1, 1)
		v := stochastic.New(1, 0.1)
		for _, id := range ids {
			svc.ledger.slab = append(svc.ledger.slab, ledgerEntry{id: id, raw: v, calSpread: v.Spread})
			svc.ledger.live++
		}
		svc.ledger.next = next
		reg := NewRegistry()
		if err := reg.addLive(svc); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	read := func(img []byte) (*Registry, error) {
		return ReadSnapshot(bytes.NewReader(img), RegistryOptions{})
	}
	for _, c := range []struct {
		ids  []uint64
		next uint64
	}{{[]uint64{9}, 5}, {[]uint64{0, 4}, 5}} {
		if _, err := read(image(c.ids, c.next)); err == nil || !strings.Contains(err.Error(), "does not ascend") {
			t.Errorf("ledger %v with next id %d: want a does-not-ascend error, got %v", c.ids, c.next, err)
		}
	}

	good := image([]uint64{a, b}, next)
	le := func(id uint64) []byte { return binary.LittleEndian.AppendUint64(nil, id) }
	if bytes.Count(good, le(a)) != 1 || bytes.Count(good, le(b)) != 1 {
		t.Fatal("the image does not hold each ledger id exactly once")
	}
	swapped := bytes.Replace(bytes.Replace(good, le(a), le(0), 1), le(b), le(a), 1)
	swapped = bytes.Replace(swapped, le(0), le(b), 1)
	if _, err := read(swapped); err == nil || !strings.Contains(err.Error(), "does not ascend") {
		t.Errorf("ledger ids out of order: want a does-not-ascend error, got %v", err)
	}

	reg, err := read(good)
	if err != nil {
		t.Fatal(err)
	}
	svc := reg.Services()[0]
	v := stochastic.New(1, 0.1)
	svc.ledgerMu.Lock()
	defer svc.ledgerMu.Unlock()
	for svc.ledger.live < maxOutstanding {
		svc.ledger.issue(v, v.Spread, nil)
	}
	last := svc.ledger.issue(v, v.Spread, nil)
	aLive, bLive := svc.ledger.isLive(a), svc.ledger.isLive(b)
	if aLive || !bLive || last != next+maxOutstanding-1 {
		t.Errorf("at the bound: id %d live %v, id %d live %v, last issued %d; want the oldest evicted and ids issued from %d", a, aLive, b, bLive, last, next+1)
	}
}
