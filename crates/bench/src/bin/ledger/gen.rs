//! Seeded load generation: inventories, per-client request streams and
//! the digests that pin requests and responses. Everything here is a
//! pure function of `--seed` (never of timing or of responses), so the
//! verifier can replay a client's stream after the window and two
//! workloads sharing a generator provably receive the same requests.

use std::collections::VecDeque;

use mpq_core::json::Json;
use mpq_core::Pair;
use mpq_datagen::functions::uniform_weights;
use mpq_datagen::WorkloadBuilder;
use mpq_rtree::PointSet;

use crate::spec::{Stream, WorkloadSpec};

/// Requests an `interactive` client remembers and refines.
pub const HISTORY: usize = 16;
/// Distinct read requests of `mutate_mix`.
pub const POOL: usize = 8;

/// splitmix64: the harness's only randomness besides `mpq_datagen`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn point(&mut self, dim: usize) -> Vec<f64> {
        (0..dim).map(|_| self.unit()).collect()
    }
}

/// Derive an independent sub-seed from the run seed and a purpose.
pub fn sub_seed(seed: u64, purpose: &str, a: u64, b: u64) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&seed.to_le_bytes());
    h.bytes(purpose.as_bytes());
    h.bytes(&a.to_le_bytes());
    h.bytes(&b.to_le_bytes());
    Rng::new(h.0).next_u64()
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of a matching: `(fid, oid, score.to_bits())` — so `-0.0` and
/// `0.0` differ — in the canonical pair order. Not emission order: the
/// sharded merge emits the same pairs in another order than the plain
/// engine, and the repo's identity contract is `sorted_pairs()`.
pub fn digest_pairs(pairs: &[Pair]) -> u64 {
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable();
    let mut h = Fnv::new();
    for p in &sorted {
        h.bytes(&p.fid.to_le_bytes());
        h.bytes(&p.oid.to_le_bytes());
        h.bytes(&p.score.to_bits().to_le_bytes());
    }
    h.0
}

/// The workload's inventory.
pub fn inventory(spec: &WorkloadSpec, seed: u64) -> PointSet {
    WorkloadBuilder::new()
        .objects(spec.objects)
        .functions(0)
        .dim(spec.dim)
        .distribution(spec.distribution)
        .seed(seed)
        .build()
        .objects
}

/// How the `interactive` mix produced a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    New,
    Repeat,
    NearMiss,
}

/// One `POST /match` body before encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchReq {
    /// Raw weight rows; server and verifier both normalize them through
    /// `FunctionSet::try_from_rows`.
    pub rows: Vec<Vec<f64>>,
    pub exclude: Vec<u64>,
    pub kind: Kind,
}

impl MatchReq {
    fn fresh(functions: usize, dim: usize, seed: u64) -> MatchReq {
        let fs = uniform_weights(functions, dim, seed);
        MatchReq {
            rows: (0..functions as u32)
                .map(|f| fs.weights(f).to_vec())
                .collect(),
            exclude: Vec::new(),
            kind: Kind::New,
        }
    }

    pub fn body(&self) -> String {
        let rows = self
            .rows
            .iter()
            .map(|r| Json::Arr(r.iter().map(|w| Json::Num(*w)).collect()))
            .collect();
        let mut fields = vec![("functions", Json::Arr(rows))];
        if !self.exclude.is_empty() {
            let oids = self.exclude.iter().map(|o| Json::Num(*o as f64)).collect();
            fields.push(("exclude", Json::Arr(oids)));
        }
        Json::obj(fields).render()
    }
}

/// One `POST /mutate` body before encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// `oid` is the id the engine will assign (ids are sequential); the
    /// ack must agree.
    Insert {
        oid: u64,
        point: Vec<f64>,
    },
    Update {
        oid: u64,
        point: Vec<f64>,
    },
    Remove {
        oid: u64,
    },
}

impl Mutation {
    pub fn body(&self) -> String {
        let point = |p: &[f64]| Json::Arr(p.iter().map(|x| Json::Num(*x)).collect());
        match self {
            Mutation::Insert { point: p, .. } => {
                Json::obj([("op", Json::Str("insert".into())), ("point", point(p))])
            }
            Mutation::Update { oid, point: p } => Json::obj([
                ("op", Json::Str("update".into())),
                ("oid", Json::Num(*oid as f64)),
                ("point", point(p)),
            ]),
            Mutation::Remove { oid } => Json::obj([
                ("op", Json::Str("remove".into())),
                ("oid", Json::Num(*oid as f64)),
            ]),
        }
        .render()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Match(MatchReq),
    Mutate(Mutation),
}

impl Op {
    pub fn body(&self) -> String {
        match self {
            Op::Match(m) => m.body(),
            Op::Mutate(m) => m.body(),
        }
    }
}

/// Uniform insert / update / remove over the oids this generator
/// inserted itself, so the inventory size is stationary and no
/// mutation can name a missing object.
#[derive(Debug, Clone)]
pub struct MutationGen {
    rng: Rng,
    dim: usize,
    next_oid: u64,
    live: Vec<u64>,
}

impl MutationGen {
    pub fn new(spec: &WorkloadSpec, seed: u64) -> MutationGen {
        MutationGen {
            rng: Rng::new(sub_seed(seed, "mutations", 0, 0)),
            dim: spec.dim,
            next_oid: spec.objects as u64,
            live: Vec::new(),
        }
    }

    pub fn next(&mut self) -> Mutation {
        let choice = if self.live.is_empty() {
            0
        } else {
            self.rng.below(3)
        };
        match choice {
            0 => {
                let oid = self.next_oid;
                self.next_oid += 1;
                self.live.push(oid);
                Mutation::Insert {
                    oid,
                    point: self.rng.point(self.dim),
                }
            }
            1 => Mutation::Update {
                oid: self.live[self.rng.below(self.live.len())],
                point: self.rng.point(self.dim),
            },
            _ => {
                let at = self.rng.below(self.live.len());
                Mutation::Remove {
                    oid: self.live.swap_remove(at),
                }
            }
        }
    }
}

/// The fixed read pool of `mutate_mix`.
pub fn read_pool(spec: &WorkloadSpec, seed: u64) -> Vec<MatchReq> {
    (0..POOL as u64)
        .map(|i| MatchReq::fresh(spec.functions, spec.dim, sub_seed(seed, "pool", i, 0)))
        .collect()
}

/// One client's request stream.
#[derive(Debug, Clone)]
pub enum ClientStream {
    Batch {
        spec: WorkloadSpec,
        seed: u64,
        client: u64,
        issued: u64,
    },
    Interactive {
        spec: WorkloadSpec,
        seed: u64,
        client: u64,
        rng: Rng,
        fresh: u64,
        history: VecDeque<MatchReq>,
    },
    /// `mutate_mix`: mutation and read alternate 1:1 on one connection.
    Alternate {
        writes: MutationGen,
        pool: Vec<MatchReq>,
        rng: Rng,
        write_next: bool,
    },
}

impl ClientStream {
    /// The stream of connection `client`. Batch streams depend on the
    /// seed and the request shape only, never on the workload's name or
    /// shard count: `sharded_k4` and `batch_indep` draw identical
    /// requests.
    pub fn new(spec: &WorkloadSpec, seed: u64, client: usize) -> ClientStream {
        let client = client as u64;
        match spec.stream {
            Stream::Batch => ClientStream::Batch {
                spec: *spec,
                seed,
                client,
                issued: 0,
            },
            Stream::Interactive => ClientStream::Interactive {
                spec: *spec,
                seed,
                client,
                rng: Rng::new(sub_seed(seed, "mix", client, 0)),
                fresh: 0,
                history: VecDeque::with_capacity(HISTORY),
            },
            Stream::MutateMix => ClientStream::Alternate {
                writes: MutationGen::new(spec, seed),
                pool: read_pool(spec, seed),
                rng: Rng::new(sub_seed(seed, "reads", client, 0)),
                write_next: true,
            },
        }
    }

    pub fn next(&mut self) -> Op {
        match self {
            ClientStream::Batch {
                spec,
                seed,
                client,
                issued,
            } => {
                let s = sub_seed(*seed, "batch", *client, *issued);
                *issued += 1;
                Op::Match(MatchReq::fresh(spec.functions, spec.dim, s))
            }
            ClientStream::Interactive {
                spec,
                seed,
                client,
                rng,
                fresh,
                history,
            } => {
                let u = rng.unit();
                if history.is_empty() || u >= 0.8 {
                    let s = sub_seed(*seed, "fresh", *client, *fresh);
                    *fresh += 1;
                    let req = MatchReq::fresh(spec.functions, spec.dim, s);
                    remember(history, req.clone());
                    return Op::Match(req);
                }
                let mut req = history[rng.below(history.len())].clone();
                if u < 0.4 {
                    req.kind = Kind::Repeat;
                    return Op::Match(req);
                }
                req.kind = Kind::NearMiss;
                if rng.unit() < 0.5 {
                    for _ in 0..1 + rng.below(3) {
                        let oid = rng.below(spec.objects) as u64;
                        if !req.exclude.contains(&oid) {
                            req.exclude.push(oid);
                        }
                    }
                } else {
                    let row = rng.below(req.rows.len());
                    let s = rng.next_u64();
                    req.rows[row] = MatchReq::fresh(1, spec.dim, s).rows.remove(0);
                }
                remember(history, req.clone());
                Op::Match(req)
            }
            ClientStream::Alternate {
                writes,
                pool,
                rng,
                write_next,
            } => {
                let write = *write_next;
                *write_next = !write;
                if write {
                    Op::Mutate(writes.next())
                } else {
                    Op::Match(pool[rng.below(pool.len())].clone())
                }
            }
        }
    }
}

fn remember(history: &mut VecDeque<MatchReq>, req: MatchReq) {
    if history.len() == HISTORY {
        history.pop_front();
    }
    history.push_back(req);
}

/// Chained digest of a client's request bodies, sampled at request
/// counts 1, 2, 4, 8, …: two clients that sent the same first `2^k`
/// requests agree on checkpoint `k` however many more either sent.
#[derive(Debug, Clone)]
pub struct RequestChain {
    hash: Fnv,
    sent: u64,
    pub checkpoints: Vec<u64>,
}

impl RequestChain {
    pub fn new() -> RequestChain {
        RequestChain {
            hash: Fnv::new(),
            sent: 0,
            checkpoints: Vec::new(),
        }
    }

    pub fn push(&mut self, body: &str) {
        self.hash.bytes(body.as_bytes());
        self.hash.bytes(&[0xff]);
        self.sent += 1;
        if self.sent.is_power_of_two() {
            self.checkpoints.push(self.hash.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    fn bodies(spec: &WorkloadSpec, seed: u64, client: usize, n: usize) -> Vec<String> {
        let mut stream = ClientStream::new(spec, seed, client);
        (0..n).map(|_| stream.next().body()).collect()
    }

    fn small(name: &str) -> WorkloadSpec {
        WorkloadSpec {
            objects: 500,
            functions: 6,
            ..*workload(name).unwrap()
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_does_not() {
        for spec in WORKLOADS.iter().map(|w| small(w.name)) {
            for client in 0..2 {
                let a = bodies(&spec, 7, client, 40);
                assert_eq!(a, bodies(&spec, 7, client, 40), "{}", spec.name);
                assert_ne!(a, bodies(&spec, 8, client, 40), "{}", spec.name);
            }
            assert_ne!(bodies(&spec, 7, 0, 40), bodies(&spec, 7, 1, 40));
        }
    }

    #[test]
    fn sharded_k4_draws_the_requests_of_batch_indep() {
        let (a, b) = (small("batch_indep"), small("sharded_k4"));
        assert_eq!(bodies(&a, 2009, 1, 9), bodies(&b, 2009, 1, 9));
        let chain = |bodies: &[String]| {
            let mut c = RequestChain::new();
            bodies.iter().for_each(|b| c.push(b));
            c.checkpoints
        };
        // 9 and 5 requests share the checkpoints after 1, 2 and 4.
        let long = chain(&bodies(&a, 2009, 0, 9));
        let short = chain(&bodies(&b, 2009, 0, 5));
        assert_eq!((long.len(), short.len()), (4, 3));
        assert_eq!(long[..3], short[..]);
    }

    #[test]
    fn interactive_mix_is_40_40_20() {
        let spec = small("interactive");
        let mut stream = ClientStream::new(&spec, 2009, 0);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            match stream.next() {
                Op::Match(m) => counts[m.kind as usize] += 1,
                Op::Mutate(_) => unreachable!(),
            }
        }
        let share = |k: Kind| counts[k as usize] as f64 / 10_000.0;
        assert!((share(Kind::Repeat) - 0.4).abs() < 0.02, "{counts:?}");
        assert!((share(Kind::NearMiss) - 0.4).abs() < 0.02, "{counts:?}");
        assert!((share(Kind::New) - 0.2).abs() < 0.02, "{counts:?}");
    }

    #[test]
    fn mutations_only_name_live_oids_and_keep_the_inventory_stationary() {
        let spec = small("mutate_mix");
        let mut gen = MutationGen::new(&spec, 3);
        let mut live = std::collections::BTreeSet::new();
        for _ in 0..3000 {
            match gen.next() {
                Mutation::Insert { oid, .. } => assert!(live.insert(oid)),
                Mutation::Update { oid, .. } => assert!(live.contains(&oid)),
                Mutation::Remove { oid } => assert!(live.remove(&oid)),
            }
        }
        assert!(
            live.len() < 300,
            "inserts and removes balance: {}",
            live.len()
        );
    }

    #[test]
    fn response_digest_sees_score_bits_but_not_emission_order() {
        let p = |score: f64| Pair {
            fid: 1,
            oid: 2,
            score,
        };
        assert_ne!(digest_pairs(&[p(0.0)]), digest_pairs(&[p(-0.0)]));
        let (a, b) = (p(0.5), Pair { fid: 3, ..p(0.25) });
        assert_eq!(digest_pairs(&[a, b]), digest_pairs(&[b, a]));
        assert_ne!(
            digest_pairs(&[a, b]),
            digest_pairs(&[a, Pair { oid: 9, ..b }])
        );
    }
}
