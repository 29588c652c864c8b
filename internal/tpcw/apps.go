package tpcw

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/xml"
	"fmt"
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

// EncodeAuthorize builds an authorize request body.
func EncodeAuthorize(card string, amountCts int64) []byte {
	b, _ := xml.Marshal(authorizeRequest{Card: card, Amount: amountCts})
	return b
}

// DecodeAuthorize parses an authorize request body.
func DecodeAuthorize(body []byte) (card string, amountCts int64, err error) {
	var r authorizeRequest
	if err := xml.Unmarshal(body, &r); err != nil {
		return "", 0, fmt.Errorf("tpcw: parsing authorize request: %w", err)
	}
	return r.Card, r.Amount, nil
}

// EncodeAuthorization builds an authorization reply body.
func EncodeAuthorization(approved bool, txn string) []byte {
	b, _ := xml.Marshal(authorizeReply{Approved: approved, Txn: txn})
	return b
}

// DecodeAuthorization parses an authorization reply body.
func DecodeAuthorization(body []byte) (approved bool, txn string, err error) {
	var r authorizeReply
	if err := xml.Unmarshal(body, &r); err != nil {
		return false, "", fmt.Errorf("tpcw: parsing authorization reply: %w", err)
	}
	return r.Approved, r.Txn, nil
}

// BankDecision is the issuing bank's deterministic policy: approve
// unless the (card, amount) hash falls in the decline bucket (~5%).
func BankDecision(card string, amountCts int64) (bool, string) {
	h := sha256.New()
	h.Write([]byte(card))
	var amt [8]byte
	binary.BigEndian.PutUint64(amt[:], uint64(amountCts))
	h.Write(amt[:])
	sum := h.Sum(nil)
	approved := sum[0]%20 != 0
	txn := fmt.Sprintf("txn-%x", sum[:6])
	return approved, txn
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
