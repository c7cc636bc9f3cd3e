//! Seeded input generation: jittered RC networks built through the public
//! `Network` API, request frequencies, port pairs, waveforms and the
//! request mix. The program under test sees only these generated inputs.

use bdsm_circuit::{Network, GROUND};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Log-uniform in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit())
            .exp()
            .clamp(lo, hi)
    }

    /// A multiplicative jitter factor in `[1 - amp, 1 + amp]`.
    pub fn jitter(&mut self, amp: f64) -> f64 {
        1.0 + amp * (2.0 * self.unit() - 1.0)
    }
}

/// Streams of one seed, one per purpose, so adding draws to one purpose
/// never shifts another's inputs.
pub const STREAM_NETWORK: u64 = 1;
pub const STREAM_REQUESTS: u64 = 2;
pub const STREAM_HELD_OUT: u64 = 3;
pub const STREAM_CHECKS: u64 = 4;

/// Relative spread of the element values around their nominal values.
/// Small enough that every seed reduces to the same structure (shift set,
/// reduced dimension), large enough that no two seeds share a network.
const JITTER: f64 = 0.02;

/// A loaded RC ladder with `n` buses: series `r = 1 Ω`, shunt
/// `c = 1 mF` at every bus, a `5 Ω` load at the end and a `5 Ω` tap every
/// fifth bus; ports at both ends. Every value is jittered.
pub fn ladder(n: usize, seed: u64) -> Network {
    let mut rng = Rng::new(seed, STREAM_NETWORK);
    let mut net = Network::new();
    let buses: Vec<usize> = (0..n).map(|i| net.add_bus(format!("n{i}"))).collect();
    for w in buses.windows(2) {
        net.add_resistor(w[0], w[1], rng.jitter(JITTER))
            .expect("positive ladder resistor");
    }
    for &b in &buses {
        net.add_capacitor(b, GROUND, 1e-3 * rng.jitter(JITTER))
            .expect("positive ladder capacitor");
    }
    net.add_resistor(buses[n - 1], GROUND, 5.0 * rng.jitter(JITTER))
        .expect("positive load resistor");
    for &b in buses.iter().step_by(5) {
        net.add_resistor(b, GROUND, 5.0 * rng.jitter(JITTER))
            .expect("positive load tap");
    }
    net.add_port(buses[0]).expect("driver port");
    net.add_port(buses[n - 1]).expect("load port");
    net
}

/// A `rows × cols` RC mesh: `1 Ω` between 4-neighbours, `1 mF` shunts,
/// `2 Ω` loads at the four corners; ports at two opposite corners. Every
/// value is jittered.
pub fn mesh(rows: usize, cols: usize, seed: u64) -> Network {
    let mut rng = Rng::new(seed, STREAM_NETWORK);
    let mut net = Network::new();
    let idx: Vec<Vec<usize>> = (0..rows)
        .map(|i| {
            (0..cols)
                .map(|j| net.add_bus(format!("g{i}_{j}")))
                .collect()
        })
        .collect();
    for i in 0..rows {
        for j in 0..cols {
            if j + 1 < cols {
                net.add_resistor(idx[i][j], idx[i][j + 1], rng.jitter(JITTER))
                    .expect("positive mesh resistor");
            }
            if i + 1 < rows {
                net.add_resistor(idx[i][j], idx[i + 1][j], rng.jitter(JITTER))
                    .expect("positive mesh resistor");
            }
            net.add_capacitor(idx[i][j], GROUND, 1e-3 * rng.jitter(JITTER))
                .expect("positive mesh capacitor");
        }
    }
    for (i, j) in [(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)] {
        net.add_resistor(idx[i][j], GROUND, 2.0 * rng.jitter(JITTER))
            .expect("positive corner load");
    }
    net.add_port(idx[0][0]).expect("corner port");
    net.add_port(idx[rows - 1][cols - 1]).expect("corner port");
    net
}

/// One client request against a served ROM.
#[derive(Debug, Clone)]
pub enum Request {
    /// `transfer_sweep` at these angular frequencies.
    Sweep(Vec<f64>),
    /// `port_response` of one output/input pair at these frequencies.
    Port {
        out_port: usize,
        in_port: usize,
        omegas: Vec<f64>,
    },
    /// `transient_batch` of these input waveforms (one input vector per
    /// step).
    Transient(Vec<Vec<Vec<f64>>>),
}

impl Request {
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Sweep(_) => "sweep",
            Request::Port { .. } => "port",
            Request::Transient(_) => "transient",
        }
    }
}

/// Where request frequencies come from.
pub enum FreqSource<'a> {
    /// Fresh log-uniform draws inside `[lo, hi]`.
    Fresh { lo: f64, hi: f64 },
    /// Draws from a fixed pool.
    Pool(&'a [f64]),
}

/// The request stream of one workload, dealt in blocks of
/// `transient_every` requests: each block holds exactly one transient
/// batch and, of the rest, a single-port response at every third position
/// and sweeps elsewhere, in a seeded order. Fixed shares per block keep the mix, and so a run's
/// cost, the same from seed to seed. The uneven split keeps the median
/// and p95 of the frequency-domain requests inside the (slower) sweeps'
/// distribution: with an even split the median sits on the boundary
/// between ports and sweeps and jumps between them from run to run.
pub struct RequestGen {
    rng: Rng,
    deck: Vec<&'static str>,
    transient_every: usize,
    /// Frequencies per sweep or port request.
    freqs: usize,
    /// (outputs, inputs) of the served model.
    ports: (usize, usize),
}

/// Frequencies per sweep or port request of the serving workloads.
pub const REQUEST_FREQS: usize = 4;
/// Waveforms per transient batch, and steps per waveform.
const WAVEFORMS: usize = 2;
const STEPS: usize = 200;

impl RequestGen {
    pub fn new(seed: u64, transient_every: usize, freqs: usize, ports: (usize, usize)) -> Self {
        RequestGen {
            rng: Rng::new(seed, STREAM_REQUESTS),
            deck: Vec::new(),
            transient_every,
            freqs,
            ports,
        }
    }

    /// A shuffled block of request kinds.
    fn deal(&mut self) -> Vec<&'static str> {
        let mut deck: Vec<&'static str> = (0..self.transient_every)
            .map(|i| match i {
                0 => "transient",
                i if i % 3 == 0 => "port",
                _ => "sweep",
            })
            .collect();
        for i in (1..deck.len()).rev() {
            deck.swap(i, self.rng.below(i + 1));
        }
        deck
    }

    pub fn next(&mut self, freqs: &FreqSource) -> Request {
        if self.deck.is_empty() {
            self.deck = self.deal();
        }
        let kind = self.deck.pop().expect("dealt a non-empty block");
        if kind == "transient" {
            let inputs = self.ports.1;
            let waveforms = (0..WAVEFORMS)
                .map(|_| waveform(&mut self.rng, STEPS, inputs))
                .collect();
            return Request::Transient(waveforms);
        }
        let omegas: Vec<f64> = (0..self.freqs)
            .map(|_| match freqs {
                FreqSource::Fresh { lo, hi } => self.rng.log_uniform(*lo, *hi),
                FreqSource::Pool(pool) => pool[self.rng.below(pool.len())],
            })
            .collect();
        if kind == "sweep" {
            Request::Sweep(omegas)
        } else {
            Request::Port {
                out_port: self.rng.below(self.ports.0),
                in_port: self.rng.below(self.ports.1),
                omegas,
            }
        }
    }
}

/// A piecewise-constant input waveform: each input holds a random level
/// for a random run of steps.
fn waveform(rng: &mut Rng, steps: usize, inputs: usize) -> Vec<Vec<f64>> {
    let mut level: Vec<f64> = (0..inputs).map(|_| rng.unit()).collect();
    (0..steps)
        .map(|_| {
            if rng.below(20) == 0 {
                level = (0..inputs).map(|_| rng.unit()).collect();
            }
            level.clone()
        })
        .collect()
}

/// `count` log-uniform frequencies inside `[lo, hi]`, one in each of
/// `count` equal slices of the log range, ascending: a seeded grid that
/// covers the whole band evenly (so log-spaced shard bands each get the
/// same share).
pub fn frequency_set(rng: &mut Rng, count: usize, lo: f64, hi: f64) -> Vec<f64> {
    let ratio = hi / lo;
    (0..count)
        .map(|i| {
            let a = lo * ratio.powf(i as f64 / count as f64);
            let b = lo * ratio.powf((i + 1) as f64 / count as f64);
            rng.log_uniform(a, b.min(hi))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(9, STREAM_REQUESTS);
        let mut b = Rng::new(9, STREAM_REQUESTS);
        let mut c = Rng::new(9, STREAM_CHECKS);
        let xa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut r = Rng::new(3, 0);
        for _ in 0..1000 {
            let w = r.log_uniform(50.0, 4000.0);
            assert!((50.0..=4000.0).contains(&w));
            assert!(r.below(7) < 7);
            let j = r.jitter(0.02);
            assert!((0.98..=1.02).contains(&j));
        }
    }

    #[test]
    fn request_mix_follows_its_ratio() {
        let mut g = RequestGen::new(5, 8, REQUEST_FREQS, (2, 2));
        let src = FreqSource::Fresh { lo: 1.0, hi: 10.0 };
        let reqs: Vec<Request> = (0..4000).map(|_| g.next(&src)).collect();
        for block in reqs.chunks(8) {
            let count = |k| block.iter().filter(|r| r.kind() == k).count();
            assert_eq!(
                (count("transient"), count("sweep"), count("port")),
                (1, 5, 2)
            );
        }
        let firsts: std::collections::BTreeSet<&str> =
            reqs.chunks(8).map(|b| b[0].kind()).collect();
        assert_eq!(firsts.len(), 3, "the order within a block is shuffled");
    }

    #[test]
    fn frequency_set_covers_log_slices() {
        let mut r = Rng::new(4, STREAM_HELD_OUT);
        let set = frequency_set(&mut r, 32, 50.0, 4000.0);
        assert_eq!(set.len(), 32);
        assert!(set.windows(2).all(|w| w[0] <= w[1]));
        let mid = (50.0f64 * 4000.0).sqrt();
        assert_eq!(set.iter().filter(|&&w| w < mid).count(), 16);
        assert!(set.iter().all(|w| (50.0..=4000.0).contains(w)));
    }

    #[test]
    fn networks_are_seeded() {
        let a = ladder(50, 1);
        let b = ladder(50, 1);
        assert_eq!(a.num_buses(), 50);
        assert_eq!(format!("{:?}", a.elements()), format!("{:?}", b.elements()));
        assert_ne!(
            format!("{:?}", a.elements()),
            format!("{:?}", ladder(50, 2).elements())
        );
        assert_eq!(mesh(3, 4, 1).num_buses(), 12);
    }
}
