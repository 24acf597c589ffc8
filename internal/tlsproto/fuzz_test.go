package tlsproto_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/tlsproto"
)

// The fuzz corpus is seeded from the same renderer the scenario tests use:
// every platform profile's ClientHello (TCP and QUIC, plus the ECH, 0-RTT
// resumption and open-set variants), each also truncated and bit-flipped so
// the fuzzer starts from near-valid mutants rather than random bytes.
func corpusHellos(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewPCG(7, 7))
	var out [][]byte
	add := func(label string, prov fingerprint.Provider, tr fingerprint.Transport, opts fingerprint.Options) {
		fl, err := fingerprint.Generate(rng, label, prov, tr, opts)
		if err != nil {
			tb.Fatalf("generating %s/%s: %v", label, prov, err)
		}
		out = append(out, fl.Hello.Marshal())
	}
	for _, label := range fingerprint.AllPlatformLabels() {
		for _, prov := range fingerprint.AllProviders() {
			if !fingerprint.SupportMatrix(label, prov) {
				continue
			}
			add(label, prov, fingerprint.TCP, fingerprint.Options{})
			if fingerprint.SupportsQUIC(label, prov) {
				add(label, prov, fingerprint.QUIC, fingerprint.Options{ECH: true})
			}
		}
	}
	label, prov := "android_chrome", fingerprint.YouTube
	add(label, prov, fingerprint.TCP, fingerprint.Options{ECH: true})
	add(label, prov, fingerprint.TCP, fingerprint.Options{ZeroRTT: true})
	add(label, prov, fingerprint.TCP, fingerprint.Options{OpenSet: true})

	mutated := make([][]byte, 0, 3*len(out))
	for _, msg := range out {
		for _, cut := range []int{1, len(msg) / 2, len(msg) - 1} {
			if cut > 0 && cut < len(msg) {
				mutated = append(mutated, msg[:cut])
			}
		}
		flip := append([]byte(nil), msg...)
		flip[len(flip)/3] ^= 0x40
		mutated = append(mutated, flip)
	}
	return append(out, mutated...)
}

// exercise walks every accessor so a malformed-but-accepted hello cannot
// hide an out-of-bounds read behind a lazily parsed extension.
func exercise(ch *tlsproto.ClientHello) {
	ch.ServerName()
	ch.ExtensionTypes()
	ch.SupportedGroups()
	ch.SignatureAlgorithms()
	ch.DelegatedCredentials()
	ch.ECPointFormats()
	ch.ALPNProtocols()
	ch.ApplicationSettings()
	ch.SupportedVersions()
	ch.PSKKeyExchangeModes()
	ch.KeyShareGroups()
	ch.CompressCertificateAlgorithms()
	ch.RecordSizeLimit()
	ch.StatusRequestType()
	ch.HasExtension(tlsproto.ExtEncryptedClientHello)
}

// dirtyHello returns a ClientHello that has held a full hello, so parsing
// into it exercises the reuse of every list.
func dirtyHello(tb testing.TB, seed []byte) *tlsproto.ClientHello {
	tb.Helper()
	var ch tlsproto.ClientHello
	if err := tlsproto.ParseInto(&ch, seed); err != nil {
		tb.Fatalf("seed hello: %v", err)
	}
	return &ch
}

// sameParse fails unless a reused parse agrees with a fresh one: both
// reject, or both accept with identical hellos.
func sameParse(t *testing.T, reused *tlsproto.ClientHello, reuseErr error, fresh *tlsproto.ClientHello, err error) {
	t.Helper()
	if (err == nil) != (reuseErr == nil) {
		t.Fatalf("fresh parse error %v, reused parse error %v", err, reuseErr)
	}
	if err == nil && !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("reused parse differs from a fresh one:\n got %+v\nwant %+v", *reused, *fresh)
	}
}

func FuzzParse(f *testing.F) {
	corpus := corpusHellos(f)
	for _, msg := range corpus {
		f.Add(msg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := tlsproto.Parse(data)
		scratch := dirtyHello(t, corpus[0])
		sameParse(t, scratch, tlsproto.ParseInto(scratch, data), ch, err)
		if err != nil {
			return
		}
		exercise(ch)
		// A parsed hello must survive the canonical re-encode: Marshal output
		// is what the trace generator feeds back through this parser.
		if _, err := tlsproto.Parse(ch.Marshal()); err != nil {
			t.Fatalf("reparse of Marshal() failed: %v", err)
		}
	})
}

func FuzzParseRecord(f *testing.F) {
	corpus := corpusHellos(f)
	for _, msg := range corpus {
		rec := append([]byte{0x16, 0x03, 0x01, byte(len(msg) >> 8), byte(len(msg))}, msg...)
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := tlsproto.ParseRecord(data)
		scratch := dirtyHello(t, corpus[0])
		frag := append([]byte(nil), corpus[0]...) // a reassembly buffer holding stale bytes
		sameParse(t, scratch, tlsproto.ParseRecordInto(scratch, data, &frag), ch, err)
		if err != nil {
			return
		}
		exercise(ch)
		if _, err := tlsproto.ParseRecord(ch.MarshalRecord()); err != nil {
			t.Fatalf("reparse of MarshalRecord() failed: %v", err)
		}
	})
}
