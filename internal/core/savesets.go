// Package core implements the paper's register-allocation algorithms:
//
//   - the simple save-placement function S[E] of §2.1.1,
//   - the revised S_t[E]/S_f[E] save-placement algorithm of §2.1.3
//     (including the derived Figure 1 equations for not/and/or),
//   - the eager-restore "possibly referenced before the next call"
//     analysis of §2.2 and §3.2, and
//   - the greedy argument-shuffling algorithm of §2.3 and §3.1, together
//     with the exhaustive-optimal and naive baselines used to evaluate
//     it.
//
// The algorithms are expressed as bottom-up set combinators over
// register sets so the compiler pass (internal/codegen) can fold them
// directly over its richer IR, while the paper's simplified expression
// language (simple.go) exercises exactly the equations printed in §2.
package core

import "repro/internal/regset"

// SaveSets carries the pair (S_t[E], S_f[E]) of the revised algorithm:
// the registers to save around E if E should evaluate to true,
// respectively false. A register is saved around E iff it is in
// S_t[E] ∩ S_f[E].
type SaveSets struct {
	T regset.Set
	F regset.Set
}

// Save returns the registers to save around the expression:
// S_t[E] ∩ S_f[E].
func (s SaveSets) Save() regset.Set { return s.T.Intersect(s.F) }

// LeafSets is S_t/S_f for a variable reference or for any other trivial
// expression that makes no calls and whose result may be either true or
// false: both sets are empty.
func LeafSets() SaveSets { return SaveSets{} }

// TrueSets is S_t/S_f for the constant true. Since it is impossible for
// true to evaluate to false, S_f[true] = R, the set of all registers —
// the identity for intersection — so impossible paths do not restrict
// the result. R is the full register universe of the machine.
func TrueSets(r regset.Set) SaveSets { return SaveSets{T: regset.Empty, F: r} }

// FalseSets is S_t/S_f for the constant false (the mirror of TrueSets).
func FalseSets(r regset.Set) SaveSets { return SaveSets{T: r, F: regset.Empty} }

// CallSets is S_t/S_f for a call expression: the registers live after the
// call must be saved regardless of the call's result.
func CallSets(liveAfter regset.Set) SaveSets {
	return SaveSets{T: liveAfter, F: liveAfter}
}

// SeqSets combines (seq E1 E2):
//
//	S_t[seq] = (S_t[E1] ∩ S_f[E1]) ∪ S_t[E2]
//	S_f[seq] = (S_t[E1] ∩ S_f[E1]) ∪ S_f[E2]
//
// E1's contribution is its unconditional save set, because both of E1's
// outcomes flow into E2.
func SeqSets(e1, e2 SaveSets) SaveSets {
	s1 := e1.Save()
	return SaveSets{T: s1.Union(e2.T), F: s1.Union(e2.F)}
}

// IfSets combines (if E1 E2 E3):
//
//	S_t[if] = (S_t[E1] ∪ S_t[E2]) ∩ (S_f[E1] ∪ S_t[E3])
//	S_f[if] = (S_t[E1] ∪ S_f[E2]) ∩ (S_f[E1] ∪ S_f[E3])
//
// Each conjunct is one control path: along a path we take the union of
// the registers to save at each node, and across alternative paths the
// intersection.
func IfSets(test, then, els SaveSets) SaveSets {
	return SaveSets{
		T: test.T.Union(then.T).Intersect(test.F.Union(els.T)),
		F: test.T.Union(then.F).Intersect(test.F.Union(els.F)),
	}
}

// BindSets combines a binding of register r with right-hand side rhs and
// body scope. The binder behaves like a seq for control flow, except
// that saves of r itself cannot float above the point where r is
// defined, so r is removed from the propagated sets. The caller is
// responsible for inserting a save point for r at the binder when
// r ∈ S_t[body] ∩ S_f[body] (see SaveAtBind).
func BindSets(r int, rhs, body SaveSets) SaveSets {
	s := SeqSets(rhs, SaveSets{T: body.T.Remove(r), F: body.F.Remove(r)})
	return s
}

// SaveAtBind reports whether the binder of register r must save r
// immediately (a call is inevitable in the binder's body).
func SaveAtBind(r int, body SaveSets) bool {
	return body.Save().Has(r)
}

// NotSets is the derived Figure 1 equation for (not E) = (if E false true):
//
//	S_t[(not E)] = S_f[E]
//	S_f[(not E)] = S_t[E]
func NotSets(e SaveSets) SaveSets { return SaveSets{T: e.F, F: e.T} }

// AndSets is the derived Figure 1 equation for
// (and E1 E2) = (if E1 E2 false):
//
//	S_t[and] = S_t[E1] ∪ S_t[E2]
//	S_f[and] = (S_t[E1] ∪ S_f[E2]) ∩ S_f[E1]
func AndSets(e1, e2 SaveSets) SaveSets {
	return SaveSets{
		T: e1.T.Union(e2.T),
		F: e1.T.Union(e2.F).Intersect(e1.F),
	}
}

// OrSets is the derived Figure 1 equation for
// (or E1 E2) = (if E1 true E2):
//
//	S_t[or] = S_t[E1] ∩ (S_f[E1] ∪ S_t[E2])
//	S_f[or] = S_f[E1] ∪ S_f[E2]
func OrSets(e1, e2 SaveSets) SaveSets {
	return SaveSets{
		T: e1.T.Intersect(e1.F.Union(e2.T)),
		F: e1.F.Union(e2.F),
	}
}

// --- the simple algorithm of §2.1.1, kept for comparison and ablation ---

// SimpleSets is the one-set save function S[E] of the simple algorithm.
// Its zero value is a leaf's: S[x] = S[true] = S[false] = ∅.
type SimpleSets struct{ S regset.Set }

// SimpleCall is S[call] = {r | r live after the call}.
func SimpleCall(liveAfter regset.Set) SimpleSets { return SimpleSets{S: liveAfter} }

// SimpleSeq is S[(seq E1 E2)] = S[E1] ∪ S[E2].
func SimpleSeq(e1, e2 SimpleSets) SimpleSets { return SimpleSets{S: e1.S.Union(e2.S)} }

// SimpleIf is S[(if E1 E2 E3)] = S[E1] ∪ (S[E2] ∩ S[E3]).
func SimpleIf(test, then, els SimpleSets) SimpleSets {
	return SimpleSets{S: test.S.Union(then.S.Intersect(els.S))}
}
