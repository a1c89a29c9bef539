package machine_test

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"energysched/internal/machine"
	"energysched/internal/scenario"
)

// FuzzRestore feeds mutated checkpoint images to Restore, the path an
// image takes from a cache or a file. Restore must answer with a
// machine or an error, never a panic, a hang or an unbounded
// allocation. The checksum trailer rejects nearly every raw mutation,
// so each input is also restored with its trailer recomputed, which
// takes the mutation into the gob decoder and the shape checks. Seeded
// with images of the catalog scenarios up to 16 logical CPUs on both
// engines, and with the cases of TestRestoreRejectsMalformedImages.
func FuzzRestore(f *testing.F) {
	for _, name := range scenario.Names() {
		s := scenario.MustNamed(name)
		if s.Topology.Layout().NumLogical() > 16 {
			continue
		}
		for _, e := range []machine.Engine{machine.EngineAsync, machine.EngineLockstep} {
			m, err := s.Build(e, nil)
			if err != nil {
				f.Fatalf("%s: %v", name, err)
			}
			m.Run(500)
			img, err := m.Checkpoint()
			if err != nil {
				f.Fatalf("%s: %v", name, err)
			}
			f.Add(img)
		}
	}
	for _, img := range machine.MalformedImages(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A machine and an error are both answers; only a panic, a hang
		// or a runaway allocation fails.
		_, _ = machine.Restore(data, nil)
		const trailer = 4 // the big-endian CRC-32 (IEEE) of the bytes before it
		if len(data) < trailer {
			return
		}
		sealed := append([]byte(nil), data...)
		body := sealed[:len(sealed)-trailer]
		binary.BigEndian.PutUint32(sealed[len(body):], crc32.ChecksumIEEE(body))
		_, _ = machine.Restore(sealed, nil)
	})
}
