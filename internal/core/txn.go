package core

// Cross-shard atomic transactions at the Perpetual-WS layer. The
// perpetual driver's transactions (see internal/perpetual/txn.go) move
// opaque payloads; this file maps its 2PC protocol onto the SOAP world
// so unmodified-looking applications can participate:
//
//   - A PREPARE delivers its inner SOAP envelope as an ordinary
//     incoming request tagged with PropTxnID; the application validates
//     and reserves, then replies. A SOAP fault reply is an abort vote,
//     any other reply is a commit vote (perpetualSender wraps it).
//   - The agreed COMMIT/ABORT arrives as a synthesized request whose
//     body DecodeTxnOutcome parses; the application applies or releases
//     its reservations and replies with any acknowledgement body.
//   - Coordinators issue transactions through TxnSender.SendTxn, which
//     every MessageHandler of this package implements.

import (
	"context"
	"encoding/xml"
	"fmt"
	"time"

	"perpetualws/internal/perpetual"
	"perpetualws/internal/soap"
)

// Transaction-related context properties and actions.
const (
	// PropTxnID marks an incoming request context as the PREPARE of a
	// cross-shard transaction; the value is the transaction id string.
	// Applications that support transactions reserve (rather than
	// apply) the request's effects under that id and surface failure as
	// a SOAP fault, which becomes their abort vote.
	PropTxnID = "perpetual.txnID"
	// ActionTxnOutcome is the wsa:Action of synthesized COMMIT/ABORT
	// requests.
	ActionTxnOutcome = "urn:perpetual:txn-outcome"
	// PropTxnOutcome marks a request context as a genuine agreed
	// COMMIT/ABORT synthesized by the node from an authenticated
	// coordinator frame. Applications MUST require this property before
	// acting on a txnOutcome-shaped body: properties are process-local,
	// so an external client sending a lookalike body as an ordinary
	// request cannot carry it.
	PropTxnOutcome = "perpetual.txnOutcome"
)

// TxnSender is implemented by MessageHandlers that can issue
// cross-shard atomic transactions: body i is delivered as a PREPARE to
// the shard that key i routes to, and the BFT-agreed commit/abort
// decision is reached in this service's own voter group (see
// perpetual.Request.Txn for the protocol and its determinism
// requirements).
type TxnSender interface {
	SendTxn(service string, keys []string, bodies [][]byte, timeoutMillis int64) (*perpetual.TxnResult, error)
}

// txnOutcomeXML is the wire form of a synthesized outcome request body.
type txnOutcomeXML struct {
	XMLName xml.Name `xml:"txnOutcome"`
	Txn     string   `xml:"txn,attr"`
	Commit  bool     `xml:"commit,attr"`
}

// TxnOutcomeBody renders the body of a COMMIT/ABORT request as the
// participant application receives it.
func TxnOutcomeBody(txnID string, commit bool) []byte {
	b, _ := xml.Marshal(txnOutcomeXML{Txn: txnID, Commit: commit})
	return b
}

// DecodeTxnOutcome parses a transaction outcome body; ok is false for
// any other body, so applications can probe with it cheaply.
func DecodeTxnOutcome(body []byte) (txnID string, commit bool, ok bool) {
	var o txnOutcomeXML
	if err := xml.Unmarshal(body, &o); err != nil || o.XMLName.Local != "txnOutcome" || o.Txn == "" {
		return "", false, false
	}
	return o.Txn, o.Commit, true
}

// SendTxn implements TxnSender: each body is wrapped in a SOAP envelope
// (so participants receive ordinary-looking requests) and handed to the
// driver's cross-shard commit protocol. Replies to the transaction's
// requests never surface through ReceiveReply — the driver settles them
// internally — so SendTxn composes with the node's event pump.
func (h *handler) SendTxn(service string, keys []string, bodies [][]byte, timeoutMillis int64) (*perpetual.TxnResult, error) {
	if len(keys) == 0 || len(keys) != len(bodies) {
		return nil, fmt.Errorf("perpetualws: SendTxn needs matching non-empty keys and bodies (%d keys, %d bodies)", len(keys), len(bodies))
	}
	if h.isClosed() {
		return nil, ErrClosed
	}
	kb := make([][]byte, len(keys))
	payloads := make([][]byte, len(keys))
	for i := range keys {
		env := soap.Envelope{
			Header: soap.Header{
				To:      soap.ServiceURI(service),
				ReplyTo: h.replyTo,
			},
			Body: bodies[i],
		}
		payload, err := env.Marshal()
		if err != nil {
			return nil, fmt.Errorf("perpetualws: marshal txn prepare %d: %w", i, err)
		}
		kb[i] = []byte(keys[i])
		payloads[i] = payload
	}
	res, err := h.driver.Do(context.Background(), perpetual.Request{
		Target: service, Txn: true, TxnKeys: kb, TxnPayloads: payloads,
		Timeout: time.Duration(timeoutMillis) * time.Millisecond,
	})
	return res.Txn, err
}

var _ TxnSender = (*handler)(nil)
