package coherent_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"dircc/internal/coherent"
	"dircc/internal/core"
	"dircc/internal/protocol/list"
	"dircc/internal/protocol/stp"
)

// TestCanonFieldCoverage changes every field of every value the
// canonical encoding covers on an engine's behalf — messages, each
// line-metadata type, the SCI purge cursor — one at a time, and
// requires each change to change the encoding. A field added later
// without being encoded would merge distinct states in the model
// checker; this catches it even where the pinned exploration counts
// happen not to move.
func TestCanonFieldCoverage(t *testing.T) {
	cases := []struct {
		name string
		v    coherent.CanonAppender
		skip map[string]bool
	}{
		{"Msg", &coherent.Msg{
			Type: coherent.MsgInv, Src: 1, Dst: 2, Block: 3, Requester: 1, Aux: coherent.NoNode,
			Ptrs: []coherent.NodeID{0, 2}, HasData: true, Data: 7, AckTo: 2, Seq: 4,
		}, map[string]bool{"probeID": true}},
		{"treeMeta", lineMeta(t, core.New(1, 2)), nil},
		{"sllMeta", lineMeta(t, list.NewSLL()), nil},
		{"sciMeta", lineMeta(t, list.NewSCI()), nil},
		{"stpMeta", lineMeta(t, stp.New()), nil},
		{"purgeState", sciPurgeScratch(t), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.v.AppendCanon(nil)
			muts := mutations(t, reflect.ValueOf(tc.v).Elem(), fmt.Sprintf("%T", tc.v), tc.skip)
			if len(muts) == 0 {
				t.Fatal("no fields to mutate")
			}
			for _, mu := range muts {
				undo := mu.apply()
				got := tc.v.AppendCanon(nil)
				undo()
				if bytes.Equal(got, base) {
					t.Errorf("changing %s leaves the encoding unchanged", mu.path)
				}
				if again := tc.v.AppendCanon(nil); !bytes.Equal(again, base) {
					t.Fatalf("undoing the change to %s did not restore the encoding", mu.path)
				}
			}
		})
	}
}

// mutation changes one leaf field in place; apply returns the undo.
type mutation struct {
	path  string
	apply func() (undo func())
}

// mutations lists one mutation per scalar leaf under v (addressable),
// descending into structs, arrays and slice elements, plus one length
// change per slice. A field kind the encoding cannot be checked for
// fails the test, so a new map or pointer field gets a decision.
func mutations(t *testing.T, v reflect.Value, path string, skip map[string]bool) []mutation {
	t.Helper()
	// Unexported fields are read-only through reflect; write them in
	// place through their address instead.
	s := reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	var out []mutation
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if !skip[name] {
				out = append(out, mutations(t, v.Field(i), path+"."+name, skip)...)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = append(out, mutations(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), skip)...)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			out = append(out, mutations(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), skip)...)
		}
		out = append(out, mutation{path + " (length)", func() func() {
			old := reflect.ValueOf(s.Interface())
			grown := reflect.AppendSlice(reflect.MakeSlice(v.Type(), 0, old.Len()+1), old)
			s.Set(reflect.Append(grown, reflect.Zero(v.Type().Elem())))
			return func() { s.Set(old) }
		}})
	case reflect.Bool:
		out = append(out, mutation{path, func() func() {
			old := s.Bool()
			s.SetBool(!old)
			return func() { s.SetBool(old) }
		}})
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out = append(out, mutation{path, func() func() {
			old := s.Int()
			s.SetInt(old + 1)
			return func() { s.SetInt(old) }
		}})
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out = append(out, mutation{path, func() func() {
			old := s.Uint()
			s.SetUint(old + 1)
			return func() { s.SetUint(old) }
		}})
	default:
		t.Fatalf("%s: field kind %s has no mutation; decide how the encoding covers it", path, v.Kind())
	}
	return out
}

// newCheckedMachine builds a three-node checked machine whose messages
// wait in the returned pool until delivered by hand.
func newCheckedMachine(t *testing.T, eng coherent.Engine) (*coherent.Machine, *[]func()) {
	t.Helper()
	mc := coherent.DefaultConfig(3)
	mc.CacheBytes = mc.BlockBytes
	mc.CacheSets = 1
	mc.Check = true
	m, err := coherent.NewMachine(mc, eng)
	if err != nil {
		t.Fatal(err)
	}
	pool := new([]func())
	m.SetSendHook(func(_ *coherent.Msg, deliver func()) { *pool = append(*pool, deliver) })
	return m, pool
}

// deliverUntil delivers pooled messages in send order, draining the
// kernel after each, until stop holds or nothing is left in flight.
func deliverUntil(t *testing.T, m *coherent.Machine, pool *[]func(), stop func() bool) {
	t.Helper()
	for {
		if err := m.Eng.Run(); err != nil {
			t.Fatal(err)
		}
		if stop() || len(*pool) == 0 {
			return
		}
		next := (*pool)[0]
		*pool = (*pool)[1:]
		next()
	}
}

// lineMeta returns the metadata eng attaches to a freshly read line.
func lineMeta(t *testing.T, eng coherent.Engine) coherent.CanonAppender {
	t.Helper()
	m, pool := newCheckedMachine(t, eng)
	m.Access(0, 0, false, 0, func(uint64) {})
	deliverUntil(t, m, pool, func() bool { return false })
	ca, ok := m.Nodes[0].Cache.Lookup(0).Meta.(coherent.CanonAppender)
	if !ok {
		t.Fatalf("%s line metadata has no canonical encoding", eng.Name())
	}
	return ca
}

// sciPurgeScratch returns the scratch state of an SCI write caught in
// the middle of purging two sharers.
func sciPurgeScratch(t *testing.T) coherent.CanonAppender {
	t.Helper()
	m, pool := newCheckedMachine(t, list.NewSCI())
	never := func() bool { return false }
	for n := coherent.NodeID(0); n < 2; n++ {
		m.Access(n, 0, false, 0, func(uint64) {})
		deliverUntil(t, m, pool, never)
	}
	m.Access(2, 0, true, 9, func(uint64) {})
	deliverUntil(t, m, pool, func() bool {
		txn := m.Txn(2, 0)
		return txn != nil && txn.Scratch != nil
	})
	txn := m.Txn(2, 0)
	if txn == nil || txn.Scratch == nil {
		t.Fatal("the SCI write never started a purge")
	}
	ca, ok := txn.Scratch.(coherent.CanonAppender)
	if !ok {
		t.Fatalf("SCI scratch %T has no canonical encoding", txn.Scratch)
	}
	return ca
}
