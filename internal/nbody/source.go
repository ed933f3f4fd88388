package nbody

import "strings"

// Variant selects the link representation the kernel is compiled with.
//
// VariantBaseline is the natural encoding: a 16-byte llink holding a
// Q16.16 float weight and a node pointer. The advisor profiles this
// build; its struct lnode keeps hot force-loop members (num_links,
// links, x, y, fx, fy) scattered among cold metadata, so both a
// hot/cold split and a reorder are discoverable.
//
// VariantCompressed is the hand-packed encoding paperscape ships: one
// long per link, the target's array index in the high bits and the
// integer weight in the low 10 bits — halving link memory at the cost
// of shift/mask work in the inner loop. It is the ground-truth "expert
// optimized" build the §3.3-style study compares against.
type Variant int

// Variants.
const (
	VariantBaseline Variant = iota
	VariantCompressed
)

func (v Variant) String() string {
	if v == VariantCompressed {
		return "compressed"
	}
	return "baseline"
}

// llinkStruct returns the MC declaration of struct llink.
func llinkStruct(v Variant) string {
	if v == VariantCompressed {
		return `struct llink {
	long data;
};`
	}
	return `struct llink {
	float weight;
	struct lnode *node;
};`
}

// sub returns the variant-specific statement substitutions for the
// kernel template. Multi-line snippets carry the indentation of their
// insertion point on continuation lines.
func sub(v Variant) *strings.Replacer {
	if v == VariantCompressed {
		return strings.NewReplacer(
			"@LLINK@", llinkStruct(v),
			"@FINE_FILL@", `l->data = b * 1024 + w;`,
			"@FINE_FILL_REV@", `l->data = a * 1024 + w;`,
			"@COARSE_FILL@", `l->data = pb * 1024 + ew[i];`,
			"@COARSE_FILL_REV@", `l->data = pa * 1024 + ew[i];`,
			"@FORCE_READ@", `q = ns + (l->data >> 10);
			w = (float) (l->data & 1023);`,
			"@COMBINE_SAME@", `(pl[q2].data >> 10) == (pl[k].data >> 10)`,
			"@COMBINE_MERGE@", `pl[k].data += pl[q2].data & 1023;`,
			"@COMBINE_COPY@", `pl[t].data = pl[t + 1].data;`,
		)
	}
	return strings.NewReplacer(
		"@LLINK@", llinkStruct(v),
		"@FINE_FILL@", `l->weight = (float) w;
		l->node = nodes + b;`,
		"@FINE_FILL_REV@", `l->weight = (float) w;
		l->node = nodes + a;`,
		"@COARSE_FILL@", `l->weight = (float) ew[i];
			l->node = cnodes + pb;`,
		"@COARSE_FILL_REV@", `l->weight = (float) ew[i];
			l->node = cnodes + pa;`,
		"@FORCE_READ@", `q = l->node;
			w = l->weight;`,
		"@COMBINE_SAME@", `pl[q2].node == pl[k].node`,
		"@COMBINE_MERGE@", `pl[k].weight += pl[q2].weight;`,
		"@COMBINE_COPY@", `pl[t].weight = pl[t + 1].weight;
					pl[t].node = pl[t + 1].node;`,
	)
}

// srcTemplate is the layout kernel, a port of paperscape's hierarchical
// force-directed graph layout to the MC dialect. Leaves are papers;
// pairs of leaves aggregate into coarse nodes whose duplicate links are
// combined; the coarse graph relaxes first and seeds the fine pass.
// All arithmetic on positions and forces is Q16.16 fixed point, so the
// eight output longs are bit-exact across execution engines and layouts.
const srcTemplate = `/* nbody: hierarchical force layout over a citation graph. */

struct lnode;

@LLINK@

struct paper {
	long id;
	long refs;
};

struct lnode {
	long flags;
	float x;
	float fx;
	struct lnode *parent;
	float y;
	float fy;
	union {
		struct paper *paper;
		struct lnode *child0;
	};
	long num_links;
	struct llink *links;
	struct lnode *child1;
	long mass;
	long radius;
};

/* One relaxation step over ns[0..count-1]: a spring toward the origin,
 * weighted attraction along links, then an explicit Euler integration
 * with step 0.25. Links are stored in both directions, so accumulating
 * only into p keeps the forces symmetric while every link-loop memory
 * read of another node touches just its x and y. */
void force_pass(struct lnode *ns, long count) {
	long i;
	long k;
	struct lnode *p;
	struct lnode *q;
	struct llink *l;
	float dx;
	float dy;
	float w;
	for (i = 0; i < count; i++) {
		p = &ns[i];
		p->fx = 0.0 - p->x * 0.0625;
		p->fy = 0.0 - p->y * 0.0625;
	}
	for (i = 0; i < count; i++) {
		p = &ns[i];
		for (k = 0; k < p->num_links; k++) {
			l = &p->links[k];
			@FORCE_READ@
			dx = q->x - p->x;
			dy = q->y - p->y;
			p->fx += dx * w * 0.00390625;
			p->fy += dy * w * 0.00390625;
		}
	}
	for (i = 0; i < count; i++) {
		p = &ns[i];
		p->x += p->fx * 0.25;
		p->y += p->fy * 0.25;
	}
}

/* Merge duplicate links (same target) in p's segment, order preserving:
 * the survivor accumulates the duplicate's weight and later entries
 * shift left. */
void combine_links(struct lnode *p) {
	long k;
	long q2;
	long t;
	struct llink *pl;
	pl = p->links;
	for (k = 0; k < p->num_links; k++) {
		q2 = k + 1;
		while (q2 < p->num_links) {
			if (@COMBINE_SAME@) {
				@COMBINE_MERGE@
				t = q2;
				while (t + 1 < p->num_links) {
					@COMBINE_COPY@
					t++;
				}
				p->num_links--;
			} else {
				q2++;
			}
		}
	}
}

long main() {
	long n;
	long m;
	long ci;
	long fi;
	long cn;
	long i;
	long a;
	long b;
	long w;
	long pa;
	long pb;
	long off;
	long it;
	long clinks;
	long poschk;
	long forcechk;
	long paperchk;
	long masschk;
	long *ea;
	long *eb;
	long *ew;
	struct paper *papers;
	struct lnode *nodes;
	struct lnode *cnodes;
	struct llink *pool;
	struct llink *cpool;
	struct lnode *p;
	struct lnode *c;
	struct llink *l;

	n = read_long();
	m = read_long();
	ci = read_long();
	fi = read_long();
	if (n < 2) {
		write_long(1);
		write_long(0);
		write_long(0);
		write_long(0);
		write_long(0);
		write_long(0);
		write_long(0);
		write_long(0);
		return 1;
	}

	papers = (struct paper *) malloc(n * sizeof(struct paper));
	nodes = (struct lnode *) calloc(n, sizeof(struct lnode));
	ea = (long *) malloc(m * 8);
	eb = (long *) malloc(m * 8);
	ew = (long *) malloc(m * 8);

	for (i = 0; i < n; i++) {
		papers[i].id = i;
		papers[i].refs = read_long();
		p = &nodes[i];
		p->flags = 1;
		p->num_links = 0;
		p->parent = (struct lnode *) 0;
		p->paper = &papers[i];
		p->child1 = (struct lnode *) 0;
		p->links = (struct llink *) 0;
		p->mass = papers[i].refs;
		p->radius = p->mass / 2;
		p->x = (float) (i * 37 % 101 - 50);
		p->y = (float) (i * 53 % 89 - 44);
		p->fx = 0.0;
		p->fy = 0.0;
	}

	/* The input is read once; stage the edge list so the link segments
	 * can be counted, offset and filled in separate passes. Each edge is
	 * stored in both directions. */
	for (i = 0; i < m; i++) {
		ea[i] = read_long();
		eb[i] = read_long();
		ew[i] = read_long();
		nodes[ea[i]].num_links++;
		nodes[eb[i]].num_links++;
	}
	pool = (struct llink *) malloc((2 * m + 1) * sizeof(struct llink));
	off = 0;
	for (i = 0; i < n; i++) {
		nodes[i].links = pool + off;
		off += nodes[i].num_links;
		nodes[i].num_links = 0;
	}
	for (i = 0; i < m; i++) {
		a = ea[i];
		b = eb[i];
		w = ew[i];
		l = &nodes[a].links[nodes[a].num_links];
		@FINE_FILL@
		nodes[a].num_links++;
		l = &nodes[b].links[nodes[b].num_links];
		@FINE_FILL_REV@
		nodes[b].num_links++;
	}

	/* Coarse level: leaves (2i, 2i+1) pair into cnodes[i]. */
	cn = n / 2;
	cnodes = (struct lnode *) calloc(cn, sizeof(struct lnode));
	for (i = 0; i < cn; i++) {
		c = &cnodes[i];
		c->flags = 2;
		c->num_links = 0;
		c->parent = (struct lnode *) 0;
		c->child0 = &nodes[2 * i];
		c->child1 = &nodes[2 * i + 1];
		c->links = (struct llink *) 0;
		c->mass = c->child0->mass + c->child1->mass;
		c->radius = c->mass / 2;
		c->x = (c->child0->x + c->child1->x) * 0.5;
		c->y = (c->child0->y + c->child1->y) * 0.5;
		c->fx = 0.0;
		c->fy = 0.0;
		nodes[2 * i].parent = c;
		nodes[2 * i + 1].parent = c;
	}
	for (i = 0; i < m; i++) {
		pa = ea[i] / 2;
		pb = eb[i] / 2;
		if (pa != pb) {
			cnodes[pa].num_links++;
			cnodes[pb].num_links++;
		}
	}
	cpool = (struct llink *) malloc((2 * m + 1) * sizeof(struct llink));
	off = 0;
	for (i = 0; i < cn; i++) {
		cnodes[i].links = cpool + off;
		off += cnodes[i].num_links;
		cnodes[i].num_links = 0;
	}
	for (i = 0; i < m; i++) {
		pa = ea[i] / 2;
		pb = eb[i] / 2;
		if (pa != pb) {
			l = &cnodes[pa].links[cnodes[pa].num_links];
			@COARSE_FILL@
			cnodes[pa].num_links++;
			l = &cnodes[pb].links[cnodes[pb].num_links];
			@COARSE_FILL_REV@
			cnodes[pb].num_links++;
		}
	}
	for (i = 0; i < cn; i++) {
		combine_links(&cnodes[i]);
	}
	clinks = 0;
	for (i = 0; i < cn; i++) {
		clinks += cnodes[i].num_links;
	}

	for (it = 0; it < ci; it++) {
		force_pass(cnodes, cn);
	}

	/* Seed the fine level from the relaxed coarse positions, children
	 * offset by a quarter radius on either side. */
	for (i = 0; i < cn; i++) {
		c = &cnodes[i];
		c->child0->x = c->x - (float) c->radius * 0.25;
		c->child0->y = c->y - (float) c->radius * 0.25;
		c->child1->x = c->x + (float) c->radius * 0.25;
		c->child1->y = c->y + (float) c->radius * 0.25;
	}

	for (it = 0; it < fi; it++) {
		force_pass(nodes, n);
	}

	poschk = 0;
	forcechk = 0;
	paperchk = 0;
	for (i = 0; i < n; i++) {
		p = &nodes[i];
		poschk += (long) (p->x * 256.0) * (i + 1) + (long) (p->y * 256.0);
		forcechk += (long) (p->fx * 4096.0) + (long) (p->fy * 4096.0);
		paperchk += p->paper->refs * ((long) (p->x * 4.0) + i);
	}
	masschk = 0;
	for (i = 0; i < cn; i++) {
		masschk += cnodes[i].mass + cnodes[i].child1->flags;
	}

	write_long(0);
	write_long(n);
	write_long(clinks);
	write_long(poschk);
	write_long(forcechk);
	write_long(paperchk);
	write_long(masschk);
	write_long(cn);
	return 0;
}
`

// SourceText returns the MC source of the kernel for the variant.
func SourceText(v Variant) string {
	return sub(v).Replace(srcTemplate)
}
