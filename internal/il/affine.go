package il

// This file is the one home of the loop-analysis normal form (§5): an
// address or subscript as  rest + coef·iv,  with rest free of the index.
// Affine finds the form as a tree; LinearTerms flattens an index-free sum
// into constant + Σ coef·term. Dependence analysis (of loops and of
// 2-nests), the vectorizer and strength reduction all derive from the
// pair; what each demands of rest on top (load-free, one root) is the
// consumer's own rule, applied after the descent.

// Affine decomposes e over the loop indices ivs (the second NoVar when
// there is one loop):  e = rest + coefs[0]·ivs[0] + coefs[1]·ivs[1],  with
// rest mentioning neither index. It descends through +, −, negation,
// multiplication by an integer constant, and casts around an
// index-dependent operand; any other subtree is taken whole into rest when
// it is index-free — loads included, so a caller that hoists or compares
// rest checks LoadFree itself — and fails the decomposition otherwise.
//
// rest keeps the shape of e (the index replaced by 0 and folded away)
// rather than a canonical sum: the vectorizer and strength reduction put
// it back into the program, and a re-associated base changes the code
// generated for it. Nodes of rest come from a.
func (a *Arena) Affine(e Expr, ivs [2]VarID) (coefs [2]int64, rest Expr, ok bool) {
	switch n := e.(type) {
	case *ConstInt, *ConstFloat, *AddrOf:
		return coefs, e, true
	case *VarRef:
		for k, iv := range ivs {
			if n.ID == iv {
				coefs[k] = 1
				return coefs, a.Int(0), true
			}
		}
		return coefs, e, true
	case *Cast:
		c, r, ok := a.Affine(n.X, ivs)
		switch {
		case !ok:
			return coefs, nil, false
		case c != [2]int64{}:
			return c, r, true // an index under a cast: the cast is dropped
		case usesEither(e, ivs):
			return c, a.NewCast(r, n.T), true // the index cancelled: (T)(i − i)
		}
		return c, e, true
	case *Bin:
		switch n.Op {
		case OpAdd, OpSub:
			cl, rl, okl := a.Affine(n.L, ivs)
			cr, rr, okr := a.Affine(n.R, ivs)
			if !okl || !okr {
				return coefs, nil, false
			}
			if n.Op == OpAdd {
				return [2]int64{cl[0] + cr[0], cl[1] + cr[1]}, a.Add(rl, rr, n.T), true
			}
			return [2]int64{cl[0] - cr[0], cl[1] - cr[1]}, a.Sub(rl, rr, n.T), true
		case OpMul:
			if k, isConst := IsIntConst(n.L); isConst {
				c, r, ok := a.Affine(n.R, ivs)
				if !ok {
					return coefs, nil, false
				}
				return [2]int64{k * c[0], k * c[1]}, a.Mul(a.Int(k), r, n.T), true
			}
			if k, isConst := IsIntConst(n.R); isConst {
				c, r, ok := a.Affine(n.L, ivs)
				if !ok {
					return coefs, nil, false
				}
				return [2]int64{k * c[0], k * c[1]}, a.Mul(r, a.Int(k), n.T), true
			}
		}
	case *Un:
		if n.Op == OpNeg {
			c, r, ok := a.Affine(n.X, ivs)
			if !ok {
				return coefs, nil, false
			}
			return [2]int64{-c[0], -c[1]}, a.NewUn(OpNeg, r, n.T), true
		}
	}
	if usesEither(e, ivs) {
		return coefs, nil, false
	}
	return coefs, e, true
}

func usesEither(e Expr, ivs [2]VarID) bool {
	return UsesVar(e, ivs[0]) || UsesVar(e, ivs[1])
}

// Term is one addend Coef·Expr of a flat sum.
type Term struct {
	Expr Expr
	Coef int64
}

// LinearTerms flattens the sum e into  constant + Σ Coef·Expr:  like terms
// merged (structurally, in first-seen order), cancelled ones dropped,
// casts looked through, anything that is not +, −, negation or a multiple
// by an integer constant an opaque term. It fails on a volatile load,
// which may be neither merged nor duplicated.
func LinearTerms(e Expr) (constant int64, terms []Term, ok bool) {
	c := collector{throughCasts: true}
	if !c.collect(e, 1) {
		return 0, nil, false
	}
	for i := 0; i < c.n; i++ {
		if tm := c.term(i); tm.Coef != 0 {
			terms = append(terms, *tm)
		}
	}
	return c.constant, terms, true
}
