//! Seeded, streaming workload generator.
//!
//! A [`World`] fixes the population: node count, a community per node
//! (which decides its interests), and a set of colluder pairs. From it
//! the generator streams two event sequences without ever holding them:
//!
//! * the **bootstrap** — per node one `profile`, `degree` random
//!   `edge_add`s and `history` ratings of random peers; `fanout` more
//!   ratings of random peers per pretrusted node; one `+1` from a
//!   pretrusted node to every colluder (colluders earned some standing
//!   honestly before colluding, as in the paper's PCM); then three
//!   relationships (friend, colleague, kin) per colluder pair, which
//!   makes each pair socially close;
//! * the **rating stream** — PCM-shaped: normal raters pick a random
//!   ratee and rate `+1` with probability 0.8, `-1` otherwise; every
//!   `colluder_every`-th event comes from a colluder, round-robin over
//!   the pairs: half are `+1`s to its partner, so each pair rates far
//!   above the detector's `θ·F̄` frequency gate, and half are organic
//!   ratings of random peers, as every node issues in the paper's
//!   simulator.
//!
//! Colluder pairs join nodes of different communities, so their
//! interests never overlap. Every emitted event is schema-valid: node
//! ids stay below `nodes`, interests below `interests`, and no event
//! names the same node twice.

use std::collections::BTreeSet;

use socialtrust_server::event::{render_event, RelKind, ServerEvent};

/// SplitMix64: a small, fast, seedable generator whose output depends
/// only on the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Number of interest communities; a node's two interests come from its
/// community's block of `interests / COMMUNITIES` categories.
const COMMUNITIES: u64 = 16;

/// The population parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub nodes: u32,
    pub interests: u16,
    /// Random `edge_add`s each node emits in the bootstrap.
    pub degree: u32,
    /// Ratings of random peers each node emits in the bootstrap: the
    /// rating history EigenTrust iterates over.
    pub history: u32,
    /// Ratings of random peers each pretrusted node emits in the
    /// bootstrap, spreading pretrust beyond the pretrusted set.
    pub fanout: u32,
    pub colluder_pairs: u32,
    /// One stream event in this many comes from a colluder.
    pub colluder_every: u32,
    /// Ids below this are the daemon's pretrusted set; colluders avoid them.
    pub pretrusted: u32,
}

/// A seeded population: the shape plus the colluder pairs drawn for it.
#[derive(Debug, Clone)]
pub struct World {
    pub shape: Shape,
    seed: u64,
    pairs: Vec<(u32, u32)>,
}

impl World {
    pub fn new(shape: Shape, seed: u64) -> World {
        assert!(shape.nodes > shape.pretrusted + 2 * shape.colluder_pairs);
        assert!(u64::from(shape.interests) >= COMMUNITIES);
        let mut world = World {
            shape,
            seed,
            pairs: Vec::new(),
        };
        let mut rng = SplitMix64::new(seed ^ 0xC011_0DE5);
        let mut used = BTreeSet::new();
        let span = u64::from(shape.nodes - shape.pretrusted);
        while world.pairs.len() < shape.colluder_pairs as usize {
            let a = shape.pretrusted + rng.below(span) as u32;
            let b = shape.pretrusted + rng.below(span) as u32;
            if a == b
                || used.contains(&a)
                || used.contains(&b)
                || world.community(a) == world.community(b)
            {
                continue;
            }
            used.insert(a);
            used.insert(b);
            world.pairs.push((a, b));
        }
        world
    }

    fn node_hash(&self, node: u32) -> u64 {
        SplitMix64::new(self.seed ^ (u64::from(node) << 20)).next_u64()
    }

    fn community(&self, node: u32) -> u64 {
        self.node_hash(node) % COMMUNITIES
    }

    /// The node's declared interests (one or two categories of its
    /// community's block).
    pub fn interests_of(&self, node: u32) -> Vec<u16> {
        let h = self.node_hash(node);
        let block = u64::from(self.shape.interests) / COMMUNITIES;
        let base = (h % COMMUNITIES) * block;
        let first = (base + (h >> 8) % block) as u16;
        let second = (base + (h >> 16) % block) as u16;
        if first == second {
            vec![first]
        } else {
            vec![first, second]
        }
    }

    /// Every directed colluder pair `(rater, ratee)` the stream plants.
    pub fn colluder_pairs(&self) -> BTreeSet<(u32, u32)> {
        self.pairs
            .iter()
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect()
    }

    /// Every node that belongs to a colluder pair.
    pub fn colluders(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self.pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        nodes.sort_unstable();
        nodes
    }

    /// Events in the bootstrap.
    pub fn bootstrap_len(&self) -> u64 {
        let shape = self.shape;
        u64::from(shape.nodes) * u64::from(1 + shape.degree + shape.history)
            + u64::from(shape.pretrusted) * u64::from(shape.fanout)
            + 5 * self.pairs.len() as u64
    }

    /// The bootstrap, streamed.
    pub fn bootstrap(&self) -> Bootstrap<'_> {
        Bootstrap {
            world: self,
            rng: SplitMix64::new(self.seed ^ 0xB007),
            node: 0,
            step: 0,
            fanned: 0,
            pair_event: 0,
        }
    }

    /// The endless rating stream.
    pub fn ratings(&self) -> Ratings<'_> {
        Ratings {
            world: self,
            rng: SplitMix64::new(self.seed ^ 0x5A7E),
            emitted: 0,
            colluder_turn: 0,
        }
    }
}

/// Iterator over a [`World`]'s bootstrap events.
pub struct Bootstrap<'w> {
    world: &'w World,
    rng: SplitMix64,
    node: u32,
    step: u32,
    fanned: u64,
    pair_event: usize,
}

impl Iterator for Bootstrap<'_> {
    type Item = ServerEvent;

    fn next(&mut self) -> Option<ServerEvent> {
        let shape = self.world.shape;
        if self.node < shape.nodes {
            let node = self.node;
            let event = if self.step == 0 {
                let declare = self.world.interests_of(node);
                let requests = vec![(declare[0], 1 + self.rng.below(4))];
                ServerEvent::Profile {
                    node,
                    declare,
                    requests,
                }
            } else if self.step <= shape.degree {
                let rel = match self.rng.below(10) {
                    0..=6 => RelKind::Friend,
                    7 | 8 => RelKind::Colleague,
                    _ => RelKind::Kin,
                };
                ServerEvent::EdgeAdd {
                    a: node,
                    b: other(&mut self.rng, shape.nodes, node),
                    rel,
                }
            } else {
                normal_rating(self.world, &mut self.rng, node)
            };
            self.step += 1;
            if self.step > shape.degree + shape.history {
                self.step = 0;
                self.node += 1;
            }
            return Some(event);
        }
        if self.fanned < u64::from(shape.pretrusted) * u64::from(shape.fanout) {
            let rater = (self.fanned / u64::from(shape.fanout)) as u32;
            self.fanned += 1;
            return Some(normal_rating(self.world, &mut self.rng, rater));
        }
        let (a, b) = *self.world.pairs.get(self.pair_event / 5)?;
        let step = self.pair_event % 5;
        self.pair_event += 1;
        Some(match step {
            0 | 1 => {
                let ratee = if step == 0 { a } else { b };
                ServerEvent::Rating {
                    rater: ratee % shape.pretrusted,
                    ratee,
                    value: 1.0,
                    interest: Some(self.world.interests_of(ratee)[0]),
                }
            }
            _ => ServerEvent::EdgeAdd {
                a,
                b,
                rel: [RelKind::Friend, RelKind::Colleague, RelKind::Kin][step - 2],
            },
        })
    }
}

/// Iterator over a [`World`]'s rating stream (never ends).
pub struct Ratings<'w> {
    world: &'w World,
    rng: SplitMix64,
    emitted: u64,
    colluder_turn: usize,
}

impl<'w> Ratings<'w> {
    pub fn world(&self) -> &'w World {
        self.world
    }
}

impl Iterator for Ratings<'_> {
    type Item = ServerEvent;

    fn next(&mut self) -> Option<ServerEvent> {
        let shape = self.world.shape;
        self.emitted += 1;
        let pairs = &self.world.pairs;
        if !pairs.is_empty() && self.emitted.is_multiple_of(u64::from(shape.colluder_every)) {
            // Per pair, four turns: a rates b, b rates a, then each rates
            // a random peer organically.
            let turn = self.colluder_turn;
            self.colluder_turn = (turn + 1) % (4 * pairs.len());
            let (a, b) = pairs[turn / 4];
            let (rater, partner) = if turn.is_multiple_of(2) {
                (a, b)
            } else {
                (b, a)
            };
            if turn % 4 >= 2 {
                return Some(normal_rating(self.world, &mut self.rng, rater));
            }
            return Some(ServerEvent::Rating {
                rater,
                ratee: partner,
                value: 1.0,
                interest: Some(self.world.interests_of(partner)[0]),
            });
        }
        let rater = self.rng.below(u64::from(shape.nodes)) as u32;
        Some(normal_rating(self.world, &mut self.rng, rater))
    }
}

/// A uniformly random node other than `node`: never a self-edge or a
/// self-rating.
fn other(rng: &mut SplitMix64, nodes: u32, node: u32) -> u32 {
    let peer = rng.below(u64::from(nodes - 1)) as u32;
    if peer >= node {
        peer + 1
    } else {
        peer
    }
}

/// `rater` rates a random peer: `+1` (authentic service) with
/// probability 0.8, `-1` otherwise, under the peer's first interest.
fn normal_rating(world: &World, rng: &mut SplitMix64, rater: u32) -> ServerEvent {
    let ratee = other(rng, world.shape.nodes, rater);
    let value = if rng.unit() < 0.8 { 1.0 } else { -1.0 };
    ServerEvent::Rating {
        rater,
        ratee,
        value,
        interest: Some(world.interests_of(ratee)[0]),
    }
}

/// Append the next `count` events of `events` to `out` as log lines.
pub fn render_into(events: &mut impl Iterator<Item = ServerEvent>, count: u64, out: &mut String) {
    for event in events.take(count as usize) {
        out.push_str(&render_event(&event));
        out.push('\n');
    }
}
