package quicproto

import (
	"reflect"
	"testing"
)

// sealTest seals in, failing the test on error.
func sealTest(t *testing.T, in *Initial) []byte {
	t.Helper()
	dg, err := in.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// splitCryptoInitial seals a hello carried as two CRYPTO frames, out of
// order and with a PING between them, in one Initial.
func splitCryptoInitial(t *testing.T, dcid, hello []byte) []byte {
	t.Helper()
	cut := len(hello) / 3
	var frames []byte
	frames = append(frames, cryptoFrame(uint64(cut), hello[cut:])...)
	frames = append(frames, framePing)
	frames = append(frames, cryptoFrame(0, hello[:cut])...)
	in := &Initial{Version: Version1, DCID: dcid}
	dg, err := in.sealFrames(frames, 0)
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// TestParseIntoReuseLeaksNothing decrypts one Initial into a scratch
// Initial and buffer, then Initials of other shapes into the same scratch.
// Each result must equal a fresh ParseInitial field for field.
func TestParseIntoReuseLeaksNothing(t *testing.T) {
	hello := sampleCrypto()
	seed := sealTest(t, &Initial{Version: Version1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		SCID: []byte{9, 10}, Token: []byte("retry-token"), CryptoData: hello})
	long := make([]byte, 20)
	for i := range long {
		long[i] = byte(0xf0 + i)
	}
	cases := map[string][]byte{
		"one-byte dcid":  sealTest(t, &Initial{Version: Version1, DCID: []byte{7}, CryptoData: hello[:100]}),
		"20-byte dcid":   sealTest(t, &Initial{Version: Version1, DCID: long, PacketNumber: 3, CryptoData: hello}),
		"later fragment": sealTest(t, &Initial{Version: Version1, DCID: []byte{1}, CryptoOffset: 150, CryptoData: hello[150:]}),
		"split crypto":   splitCryptoInitial(t, []byte{5, 6, 7, 8}, hello),
	}
	pingOnly, err := (&Initial{Version: Version1, DCID: []byte{3, 4}}).sealFrames([]byte{framePing}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases["no crypto frame"] = pingOnly
	for name, dg := range cases {
		var o InitialOpener
		var p Initial
		var buf []byte
		if err := o.ParseInto(&p, splitCryptoInitial(t, []byte{1, 2}, hello), &buf); err != nil {
			t.Fatal(err)
		}
		if err := o.ParseInto(&p, seed, &buf); err != nil {
			t.Fatal(err)
		}
		if err := o.ParseInto(&p, dg, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := ParseInitial(dg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(&p, want) {
			t.Errorf("%s: reused parse differs from a fresh one:\n got %+v\nwant %+v", name, p, *want)
		}
	}
}

// TestParseIntoAllocatesOnlyCipherState pins the warm opener's contract:
// per Initial it allocates exactly the two AES key schedules and the GCM
// state the standard library builds for each key, whether the CRYPTO data
// is read in place or reassembled.
func TestParseIntoAllocatesOnlyCipherState(t *testing.T) {
	const waived = 3 // aes.NewCipher ×2, cipher.NewGCM
	hello := sampleCrypto()
	for name, dg := range map[string][]byte{
		"one frame":    sealTest(t, &Initial{Version: Version1, DCID: []byte{1, 2, 3, 4}, CryptoData: hello}),
		"split crypto": splitCryptoInitial(t, []byte{1, 2, 3, 4}, hello),
	} {
		var o InitialOpener
		var p Initial
		var buf []byte
		if err := o.ParseInto(&p, dg, &buf); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = o.ParseInto(&p, dg, &buf) }); n != waived {
			t.Errorf("%s: %.1f allocs per Initial, want %d", name, n, waived)
		}
	}
}

// TestTransportParametersIntoReuse parses a long parameter list into a
// scratch list, then shorter and empty ones; each must equal a fresh
// parse.
func TestTransportParametersIntoReuse(t *testing.T) {
	long := &TransportParameters{}
	for id := uint64(1); id <= 12; id++ {
		long.AppendUint(id, id*1000)
	}
	short := &TransportParameters{}
	short.AppendBytes(ParamInitialSourceConnectionID, []byte{1, 2, 3})
	short.AppendBytes(ParamGreaseQuicBit, nil)
	for name, body := range map[string][]byte{"shorter": short.Marshal(), "empty": nil} {
		var tp TransportParameters
		if err := ParseTransportParametersInto(&tp, long.Marshal()); err != nil {
			t.Fatal(err)
		}
		if err := ParseTransportParametersInto(&tp, body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := ParseTransportParameters(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&tp, want) {
			t.Errorf("%s: reused parse %+v, fresh %+v", name, tp, *want)
		}
	}
}
