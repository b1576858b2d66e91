package driver

import "testing"

// The §10 extension end-to-end: a linked list threaded through a node
// pool, scaled in place by a list loop. With ListParallel the per-node
// work spreads across processors and the result must still be exact.
const listProgram = `
struct node { float val; struct node *next; };
struct node pool[600];

void scale(struct node *head, float k)
{
	struct node *p;
	p = head;
	while (p) {
		p->val = p->val * k;
		p = p->next;
	}
}

int main(void)
{
	int i, bad;
	/* Thread the pool into a list in a scrambled order. */
	for (i = 0; i < 600; i++) {
		pool[i].val = i;
		if (i < 599)
			pool[i].next = &pool[i + 1];
		else
			pool[i].next = (struct node *)0;
	}
	scale(&pool[0], 3.0f);
	bad = 0;
	for (i = 0; i < 600; i++)
		if (pool[i].val != 3.0f * i) bad = bad + 1;
	return bad;
}
`

func TestListParallelCorrect(t *testing.T) {
	opts := FullOptions()
	opts.ListParallel = true
	for procs := 1; procs <= 4; procs++ {
		res, err := Run(listProgram, opts, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.ExitCode != 0 {
			t.Errorf("procs=%d: %d wrong nodes", procs, res.ExitCode)
		}
	}
}

func TestListParallelConverts(t *testing.T) {
	opts := FullOptions()
	opts.ListParallel = true
	res, err := Compile(listProgram, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two sites: scale itself and its inlined copy in main.
	if res.Report.List.LoopsConverted < 1 {
		t.Fatalf("list loops converted: %d", res.Report.List.LoopsConverted)
	}
}

// heavyListProgram gives each node enough work (a polynomial evaluation)
// for the parallel region to amortize the serialized pointer chase — the
// paper's intended profile ("a computation-intensive engine").
const heavyListProgram = `
struct node { float val; struct node *next; };
struct node pool[600];

void polish(struct node *head)
{
	struct node *p;
	float x, acc;
	p = head;
	while (p) {
		x = p->val;
		acc = 1.0f + x * (1.0f + x * (1.0f + x * (1.0f + x)));
		acc = acc + acc * acc;
		acc = acc / (1.0f + x * x);
		p->val = acc;
		p = p->next;
	}
}

int main(void)
{
	int i;
	for (i = 0; i < 600; i++) {
		pool[i].val = i % 7;
		if (i < 599)
			pool[i].next = &pool[i + 1];
		else
			pool[i].next = (struct node *)0;
	}
	polish(&pool[0]);
	return 0;
}
`

func TestListParallelSpeedsUp(t *testing.T) {
	serial := FullOptions()
	par := FullOptions()
	par.ListParallel = true
	rs, err := Run(heavyListProgram, serial, 4)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(heavyListProgram, par, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Cycles >= rs.Cycles {
		t.Errorf("list parallelization did not win: %d vs %d cycles", rp.Cycles, rs.Cycles)
	}
	t.Logf("heavy list loop: serial %d cycles, parallel(P=4) %d cycles (%.2fx)",
		rs.Cycles, rp.Cycles, float64(rs.Cycles)/float64(rp.Cycles))

	// Results must be identical to the serial run's memory effects: run
	// both and compare via a checksum variant.
	check := heavyListProgram[:len(heavyListProgram)-len("\treturn 0;\n}\n")] + `
	{
		int k, bad;
		float ref[7];
		for (k = 0; k < 7; k++) {
			float x, acc;
			x = k;
			acc = 1.0f + x * (1.0f + x * (1.0f + x * (1.0f + x)));
			acc = acc + acc * acc;
			acc = acc / (1.0f + x * x);
			ref[k] = acc;
		}
		bad = 0;
		for (k = 0; k < 600; k++)
			if (pool[k].val != ref[k % 7]) bad = bad + 1;
		return bad;
	}
}
`
	for procs := 1; procs <= 4; procs++ {
		res, err := Run(check, par, procs)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.ExitCode != 0 {
			t.Errorf("procs=%d: %d wrong nodes", procs, res.ExitCode)
		}
	}
}

func TestListParallelOffByDefault(t *testing.T) {
	res, err := Compile(listProgram, FullOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.List.LoopsConverted != 0 {
		t.Error("list conversion ran without the option (it asserts an aliasing assumption)")
	}
}
