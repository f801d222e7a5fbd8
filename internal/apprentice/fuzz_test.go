package apprentice

// Fuzzing the summary-file reader: a summary file is external input, so
// whatever bytes it holds, ReadSummary must return a dataset or an error,
// never panic. A dataset it accepts must also survive a write/read cycle:
// writing it, reading that back and writing again yields the same bytes.

import (
	"bytes"
	"testing"
)

func FuzzReadSummary(f *testing.F) {
	ds, err := Simulate(Amdahl(), PartitionSweep(1, 2), 1)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := WriteSummary(&valid, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("APPRENTICE 1\nprogram x\nversion 0\nrun 0 2 450\nfunction f\nregion 0 - loop l\ntot 0 1 1 0\ntyp 0 Barrier 0.5\ncall f - 0\nsum 0 1 1 1 0 0 0 1 1 1 0 0 0\nend\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadSummary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteSummary(&first, ds); err != nil {
			t.Fatalf("accepted summary does not write back: %v", err)
		}
		again, err := ReadSummary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written summary does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteSummary(&second, again); err != nil {
			t.Fatalf("re-read summary does not write back: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write/read cycle changed the summary:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
