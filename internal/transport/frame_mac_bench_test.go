package transport

import (
	"bytes"
	"crypto/sha256"
	"strconv"
	"testing"

	"perpetualws/internal/auth"
)

// BenchmarkFrameMAC times the sender's MAC work for one frame in each of
// the two modes macInput chooses between: raw mode MACs the payload for
// every receiver, digest mode hashes it once and MACs the 32-byte digest
// for every receiver. The payload size where digest mode starts to win
// is what digestMACThreshold should sit near.
func BenchmarkFrameMAC(b *testing.B) {
	self := auth.VoterID("s", 0)
	receivers := []auth.NodeID{auth.VoterID("s", 1), auth.VoterID("s", 2), auth.VoterID("s", 3)}
	ks := auth.NewDerivedKeyStore([]byte("m"), self, append([]auth.NodeID{self}, receivers...))
	buf := make([]byte, 0, auth.MACSize)
	for _, fan := range []struct {
		name string
		tos  []auth.NodeID
	}{{"unicast", receivers[:1]}, {"multicast3", receivers}} {
		for _, size := range []int{128, 256, 512, 1024} {
			payload := bytes.Repeat([]byte{7}, size)
			b.Run(fan.name+"/"+strconv.Itoa(size)+"B/raw", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, to := range fan.tos {
						if _, err := ks.AppendSignDomain(buf, to, auth.DomainFrameRaw, payload); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run(fan.name+"/"+strconv.Itoa(size)+"B/digest", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					digest := sha256.Sum256(payload)
					for _, to := range fan.tos {
						if _, err := ks.AppendSignDomain(buf, to, auth.DomainFrameDigest, digest[:]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
