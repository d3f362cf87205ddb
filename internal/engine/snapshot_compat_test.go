package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"unn/internal/geom"
	"unn/internal/snapshot"
)

// The golden mirror of testdata/gen_fixtures.go: the Explain output and
// spot answers recorded when the fixture snapshot was written.
type compatGolden struct {
	Explain      string
	CacheQuantum float64
	Capabilities string
	Queries      []compatQuery
}

type compatQuery struct {
	X, Y    float64
	Nonzero []int
	Probs   []struct {
		I int
		P float64
	}
	Expected *struct {
		I int
		D float64
	}
}

// TestSnapshotCompat restores the checked-in fixtures with the current
// reader and asserts the restored engines still report the recorded
// Explain, capabilities, cache quantum and answers — the guarantee that
// old files stay readable: a v1 plan (no top-k entries) restores to
// exactly the engine its writer meant (the three original kinds,
// nothing more), a v2 file (no adaptive state) restores with cold shard
// temperatures and the replanning loop disabled, and the v3 Auto disks
// files (brute NN≠0 with Monte Carlo π, written as "routed" index
// sections) restore as planned composites with Auto's rule, answering
// π bit for bit.
func TestSnapshotCompat(t *testing.T) {
	for _, name := range []string{
		"engine_v1_sharded_planned", "engine_v1_plain_kd",
		"engine_v2_sharded_planned", "engine_v2_plain_kd",
		"engine_v3_sharded_auto_disks", "engine_v3_plain_auto_disks",
	} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", name+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			gb, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want compatGolden
			if err := json.Unmarshal(gb, &want); err != nil {
				t.Fatal(err)
			}
			eng, err := ReadSnapshot(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("reading fixture snapshot: %v", err)
			}
			if got := eng.Explain(); got != want.Explain {
				t.Errorf("Explain diverged:\n--- golden ---\n%s--- restored ---\n%s", want.Explain, got)
			}
			if got := eng.Capabilities().String(); got != want.Capabilities {
				t.Errorf("capabilities = %s, want %s", got, want.Capabilities)
			}
			if got := eng.CacheQuantum(); got != want.CacheQuantum {
				t.Errorf("cache quantum = %v, want %v", got, want.CacheQuantum)
			}
			for _, wq := range want.Queries {
				q := geom.Pt(wq.X, wq.Y)
				nz, err := eng.QueryNonzero(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(nz, wq.Nonzero) {
					t.Errorf("q=%v nonzero = %v, want %v", q, nz, wq.Nonzero)
				}
				if wq.Probs != nil {
					ps, err := eng.QueryProbs(q, 0)
					if err != nil {
						t.Fatal(err)
					}
					if len(ps) != len(wq.Probs) {
						t.Fatalf("q=%v probs %v, want %v", q, ps, wq.Probs)
					}
					for i, p := range ps {
						if p.I != wq.Probs[i].I || p.P != wq.Probs[i].P {
							t.Errorf("q=%v probs[%d] = %+v, want %+v", q, i, p, wq.Probs[i])
						}
					}
				}
				if wq.Expected != nil {
					gi, gd, err := eng.QueryExpected(q)
					if err != nil {
						t.Fatal(err)
					}
					if gi != wq.Expected.I || gd != wq.Expected.D {
						t.Errorf("q=%v expected = (%d, %v), want (%d, %v)", q, gi, gd, wq.Expected.I, wq.Expected.D)
					}
				}
			}

			// A v1 plan carries no top-k entry; the restored planned fleet
			// must not invent the capability (the writer's engine did not
			// have it registered).
			if name == "engine_v1_sharded_planned" && eng.Capabilities().Has(CapTopK) {
				t.Error("restored v1 planned engine gained CapTopK")
			}

			// No fixture carries adaptive state (pre-v3 files cannot; the
			// v3 ones were written without the loop): the restored engine
			// must report cold temperatures and no replan history, with the
			// loop disabled.
			st := eng.Stats()
			if st.ShardTemps != nil {
				t.Errorf("restored engine has shard temps %v", st.ShardTemps)
			}
			if st.Replans != 0 || st.LastReplanReason != "" {
				t.Errorf("restored engine has replan history (%d, %q)", st.Replans, st.LastReplanReason)
			}
			if _, err := eng.Replan(); err == nil {
				t.Error("restored engine accepted Replan (loop should be disabled)")
			}

			// Re-snapshotting writes the current version, and the rewritten
			// file restores to the same engine again.
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, eng); err != nil {
				t.Fatal(err)
			}
			eng2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-reading current-version rewrite: %v", err)
			}
			if got, wantE := eng2.Explain(), eng.Explain(); got != wantE {
				t.Errorf("rewrite Explain diverged:\n--- fixture restore ---\n%s--- rewrite restore ---\n%s", wantE, got)
			}
			if eng2.Capabilities() != eng.Capabilities() {
				t.Errorf("rewrite capabilities = %v, want %v", eng2.Capabilities(), eng.Capabilities())
			}
		})
	}
}

// TestSnapshotVersionBounds pins the reader's version window: below
// MinVersion and above Version are rejected with the range in the
// error, and the checked-in fixtures really carry their frozen versions
// on disk.
func TestSnapshotVersionBounds(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "engine_v1_plain_kd.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if v := uint16(raw[4]) | uint16(raw[5])<<8; v != 1 {
		t.Fatalf("v1 fixture header version = %d, want 1", v)
	}
	raw2, err := os.ReadFile(filepath.Join("testdata", "engine_v2_plain_kd.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if v := uint16(raw2[4]) | uint16(raw2[5])<<8; v != 2 {
		t.Fatalf("v2 fixture header version = %d, want 2", v)
	}
	raw3, err := os.ReadFile(filepath.Join("testdata", "engine_v3_plain_auto_disks.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if v := uint16(raw3[4]) | uint16(raw3[5])<<8; v != 3 {
		t.Fatalf("v3 fixture header version = %d, want 3", v)
	}
	for _, v := range []uint16{0, snapshot.Version + 1, math.MaxUint16} {
		bad := append([]byte(nil), raw...)
		bad[4], bad[5] = byte(v), byte(v>>8)
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
}
