package tpcw

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"perpetualws/internal/core"
	"perpetualws/internal/soap"
	"perpetualws/internal/wsengine"
)

// SOAP actions of the payment tier.
const (
	ActionAuthorize = "urn:tpcw:authorize"
	ActionIssuer    = "urn:tpcw:issuer-check"
)

// authorizeRequest is the PGE request body.
type authorizeRequest struct {
	XMLName xml.Name `xml:"authorize"`
	Card    string   `xml:"card"`
	Amount  int64    `xml:"amount"`
}

// authorizeReply is the PGE reply body.
type authorizeReply struct {
	XMLName  xml.Name `xml:"authorization"`
	Approved bool     `xml:"approved,attr"`
	Txn      string   `xml:"txn,attr"`
}

// Canonical authorize request markup, as encoding/xml renders
// authorizeRequest (hand-rolled; see xmlwire.go).
const (
	authorizeOpen  = "<authorize><card>"
	authorizeMid   = "</card><amount>"
	authorizeClose = "</amount></authorize>"
)

// EncodeAuthorize builds an authorize request body.
func EncodeAuthorize(card string, amountCts int64) []byte {
	if !printableASCII(card) {
		b, _ := xml.Marshal(authorizeRequest{Card: card, Amount: amountCts})
		return b
	}
	buf := make([]byte, 0, len(authorizeOpen)+len(card)+len(authorizeMid)+20+len(authorizeClose))
	buf = append(buf, authorizeOpen...)
	buf = appendEscaped(buf, card)
	buf = append(buf, authorizeMid...)
	buf = strconv.AppendInt(buf, amountCts, 10)
	return append(buf, authorizeClose...)
}

// DecodeAuthorize parses an authorize request body.
func DecodeAuthorize(body []byte) (card string, amountCts int64, err error) {
	if c, amount, ok := scanAuthorize(body); ok {
		return string(c), amount, nil
	}
	var r authorizeRequest
	if err := xml.Unmarshal(body, &r); err != nil {
		return "", 0, fmt.Errorf("tpcw: parsing authorize request: %w", err)
	}
	return r.Card, r.Amount, nil
}

// scanAuthorize reads the canonical request shape: a plain card and an
// unsigned amount of at most 18 digits. Anything else reports !ok.
func scanAuthorize(body []byte) (card []byte, amountCts int64, ok bool) {
	rest, ok := bytes.CutPrefix(body, []byte(authorizeOpen))
	i := bytes.IndexByte(rest, '<')
	if !ok || i < 0 || !plainValue(rest[:i]) {
		return nil, 0, false
	}
	card = rest[:i]
	digits, ok := bytes.CutPrefix(rest[i:], []byte(authorizeMid))
	digits, ok2 := bytes.CutSuffix(digits, []byte(authorizeClose))
	if !ok || !ok2 || len(digits) == 0 || len(digits) > 18 {
		return nil, 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return nil, 0, false
		}
		amountCts = amountCts*10 + int64(c-'0')
	}
	return card, amountCts, true
}

// EncodeAuthorization builds an authorization reply body.
func EncodeAuthorization(approved bool, txn string) []byte {
	if !printableASCII(txn) {
		b, _ := xml.Marshal(authorizeReply{Approved: approved, Txn: txn})
		return b
	}
	buf := make([]byte, 0, len(`<authorization approved="false" txn=""></authorization>`)+len(txn))
	buf = append(buf, `<authorization approved="`...)
	buf = strconv.AppendBool(buf, approved)
	buf = append(buf, '"')
	buf = appendStrAttr(buf, "txn", txn)
	return append(buf, "></authorization>"...)
}

// DecodeAuthorization parses an authorization reply body.
func DecodeAuthorization(body []byte) (approved bool, txn string, err error) {
	seen := 0
	sc := newAttrScanner(body, "authorization")
	for {
		name, val, done := sc.next()
		if done {
			break
		}
		switch {
		case name == "approved" && seen&1 == 0 && (val == "true" || val == "false"):
			approved, seen = val == "true", seen|1
		case name == "txn" && seen&2 == 0 && !strings.Contains(val, "&"):
			txn, seen = val, seen|2
		default:
			sc.ok = false
		}
	}
	if sc.ok && seen == 3 {
		return approved, txn, nil
	}
	var r authorizeReply
	if err := xml.Unmarshal(body, &r); err != nil {
		return false, "", fmt.Errorf("tpcw: parsing authorization reply: %w", err)
	}
	return r.Approved, r.Txn, nil
}

// BankDecision is the issuing bank's deterministic policy: approve
// unless the (card, amount) hash falls in the decline bucket (~5%).
func BankDecision(card string, amountCts int64) (bool, string) {
	sum := sha256.Sum256(binary.BigEndian.AppendUint64([]byte(card), uint64(amountCts)))
	return sum[0]%20 != 0, string(hex.AppendEncode([]byte("txn-"), sum[:6]))
}

// BankApp is the credit-card-issuing bank: a passive deterministic
// service answering issuer checks. Deployable unmodified under
// Perpetual-WS (paper Section 3, "support for unmodified passive WS").
func BankApp() core.Application {
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		for {
			req, err := ctx.ReceiveRequest()
			if err != nil {
				return
			}
			card, amount, perr := DecodeAuthorize(req.Envelope.Body)
			reply := wsengine.NewMessageContext()
			if perr != nil {
				reply.Envelope.Body = soap.FaultBody(soap.Fault{Code: "soap:Sender", Reason: perr.Error()})
			} else {
				approved, txn := BankDecision(card, amount)
				reply.Envelope.Body = EncodeAuthorization(approved, txn)
			}
			if err := ctx.SendReply(reply, req); err != nil {
				return
			}
		}
	})
}

// PGESyncApp is the synchronous payment gateway: each authorization
// blocks on the bank before the next request is served (the paper's
// synchronous comparison configuration).
func PGESyncApp(bankService string) core.Application {
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		for {
			req, err := ctx.ReceiveRequest()
			if err != nil {
				return
			}
			bankReq := wsengine.NewMessageContext()
			bankReq.Options.To = soap.ServiceURI(bankService)
			bankReq.Options.Action = ActionIssuer
			bankReq.Envelope.Body = req.Envelope.Body
			bankReply, err := ctx.SendReceive(bankReq)
			if err != nil {
				return
			}
			reply := wsengine.NewMessageContext()
			reply.Envelope.Body = relayBankReply(bankReply)
			if err := ctx.SendReply(reply, req); err != nil {
				return
			}
		}
	})
}

// PGEAsyncApp is the asynchronous payment gateway (the paper's
// configuration): it starts processing new incoming authorizations while
// earlier bank calls are still outstanding. A dispatcher thread receives
// store requests and issues non-blocking bank calls; a collector thread
// consumes bank replies and answers the store. Per-request outputs
// depend only on the bank's reply content, so replica determinism is
// preserved (every voter endorses the same reply bytes per request).
func PGEAsyncApp(bankService string) core.Application {
	return core.ApplicationFunc(func(ctx *core.AppContext) {
		var mu sync.Mutex
		pending := make(map[string]*wsengine.MessageContext) // bank msgID -> store request

		var wg sync.WaitGroup
		wg.Add(1)
		// Collector: consume bank replies as they are agreed, answering
		// the corresponding store requests.
		go func() {
			defer wg.Done()
			for {
				bankReply, err := ctx.ReceiveReply()
				if err != nil {
					return
				}
				mu.Lock()
				storeReq, ok := pending[bankReply.Envelope.Header.RelatesTo]
				if ok {
					delete(pending, bankReply.Envelope.Header.RelatesTo)
				}
				mu.Unlock()
				if !ok {
					continue
				}
				reply := wsengine.NewMessageContext()
				reply.Envelope.Body = relayBankReply(bankReply)
				if err := ctx.SendReply(reply, storeReq); err != nil {
					return
				}
			}
		}()

		// Dispatcher: the long-running active thread.
		for {
			req, err := ctx.ReceiveRequest()
			if err != nil {
				break
			}
			bankReq := wsengine.NewMessageContext()
			bankReq.Options.To = soap.ServiceURI(bankService)
			bankReq.Options.Action = ActionIssuer
			bankReq.Envelope.Body = req.Envelope.Body
			// Hold mu across Send: on a lagging replica the bank's reply can
			// reach the collector before Send returns, and the collector
			// must find the entry rather than drop the reply.
			mu.Lock()
			err = ctx.Send(bankReq)
			if err == nil {
				pending[bankReq.Envelope.Header.MessageID] = req
			}
			mu.Unlock()
			if err != nil {
				break
			}
		}
		wg.Wait()
	})
}

// relayBankReply converts a bank reply (or fault) into the PGE's reply
// body.
func relayBankReply(bankReply *wsengine.MessageContext) []byte {
	if f, isFault := soap.IsFault(bankReply.Envelope.Body); isFault {
		return soap.FaultBody(soap.Fault{Code: "soap:Receiver", Reason: "issuer unavailable: " + f.Reason})
	}
	return bankReply.Envelope.Body
}

// GatewayClient implements PaymentAuthorizer over a Perpetual-WS
// MessageHandler: the bookstore's side of the store -> PGE hop.
type GatewayClient struct {
	Handler core.MessageHandler
	Service string
	// TimeoutMillis aborts authorizations deterministically; zero never
	// aborts.
	TimeoutMillis int64

	mu sync.Mutex // serializes Send+ReceiveReplyFor pairs per client
}

// Authorize implements PaymentAuthorizer.
func (g *GatewayClient) Authorize(card string, amountCts int64) (bool, string, error) {
	req := wsengine.NewMessageContext()
	req.Options.To = soap.ServiceURI(g.Service)
	req.Options.Action = ActionAuthorize
	req.Options.TimeoutMillis = g.TimeoutMillis
	req.Envelope.Body = EncodeAuthorize(card, amountCts)

	g.mu.Lock()
	err := g.Handler.Send(req)
	g.mu.Unlock()
	if err != nil {
		return false, "", err
	}
	reply, err := g.Handler.ReceiveReplyFor(req)
	if err != nil {
		return false, "", err
	}
	if f, isFault := soap.IsFault(reply.Envelope.Body); isFault {
		return false, "", fmt.Errorf("tpcw: authorization failed: %s", f.Reason)
	}
	return DecodeAuthorization(reply.Envelope.Body)
}
