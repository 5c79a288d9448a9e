package main

import (
	"path/filepath"
	"testing"

	"pacer"
)

// TestLadderOnSmallInputs runs each program mirror through rt in record
// mode, then passes 2-4 on the recorded stream, and checks that the
// frontend pass sees exactly the ops the recorded hooks imply. Run it
// with -race: the mirrors are concurrent code.
func TestLadderOnSmallInputs(t *testing.T) {
	scanIn := []uint64{2 * scanBatch, 1, scanTick, 7, 9}
	for i := 0; i < 64; i++ {
		scanIn = append(scanIn, uint64(i))
	}
	kvIn := []uint64{1}
	for i := 0; i < 40; i++ {
		kvIn = append(kvIn, uint64(i%7))
	}
	for _, tc := range []struct {
		w  *progWorkload
		in []uint64
	}{{scanWorkload, scanIn}, {kvWorkload, kvIn}} {
		t.Run(tc.w.name, func(t *testing.T) {
			pass := &rtPass{mode: modeRecord}
			main := &probe{pass: pass}
			tc.w.mirror(tc.in, main)
			pass.running.Wait()

			var reads, writes, syncs uint64
			for _, op := range pass.log {
				switch k := hookKind(op.Kind); k {
				case hR:
					reads++
				case hW:
					writes++
				case hSpawn:
					syncs++
				default:
					syncs += uint64(len(syncCalls(nil, k, 0, nil)))
				}
			}
			_, vars, nvars, _ := shadowPass(pass.log, 0)
			fe, lin := frontendPasses(detectorOptions(tc.w.rate), 0, func(det *pacer.Detector, spans *callSpans) (int, int) {
				return driveFrontend(det, pass.log, vars, nvars, spans)
			})
			if fe.stats.Reads != reads || fe.stats.Writes != writes || fe.stats.SyncOps != syncs {
				t.Fatalf("frontend pass counted %d/%d/%d reads/writes/sync ops; the hooks imply %d/%d/%d",
					fe.stats.Reads, fe.stats.Writes, fe.stats.SyncOps, reads, writes, syncs)
			}
			be, err := backendPass(lin, 0)
			if err != nil {
				t.Fatal(err)
			}
			if be.access.N != int(reads+writes) {
				t.Fatalf("backend pass timed %d accesses, want %d", be.access.N, reads+writes)
			}
		})
	}
}

// TestHookLogRoundTrip checks the record pass's log format.
func TestHookLogRoundTrip(t *testing.T) {
	pass := &rtPass{mode: modeRecord}
	pass.log = []hookOp{{Kind: uint8(hW), G: 3, Addr: 0xdeadbeef, Site: 5}, {Kind: uint8(hSpawn), Addr: 4}}
	path := filepath.Join(t.TempDir(), "hooks.log")
	if err := writeLog(path, pass.log); err != nil {
		t.Fatal(err)
	}
	got, err := readLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != pass.log[0] || got[1] != pass.log[1] {
		t.Fatalf("read back %+v", got)
	}
}
