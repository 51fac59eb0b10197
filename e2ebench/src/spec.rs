//! The benchmark's workloads. `README.md` in this directory says why each
//! one was chosen and what it should and should not move.

/// An assembly workload: random genome, simulated reads, `pim-asm
/// assemble`-shaped run through `Session`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsmSpec {
    pub genome_len: usize,
    pub read_len: usize,
    pub coverage: f64,
    /// Per-base substitution rate of the simulated reads.
    pub error_rate: f64,
    pub k: usize,
    /// Hash-partition sub-arrays. Set explicitly: the CLI default of 32
    /// overflows beyond ~30 kbp.
    pub hash_subarrays: usize,
    pub workers: usize,
    /// Reads per `Session::feed`; `None` loads the whole file first and
    /// feeds it once (batch ingestion).
    pub chunk_reads: Option<usize>,
    /// Reads are written as FASTQ (else FASTA).
    pub fastq: bool,
    /// The session checkpoints into a directory after every chunk.
    pub checkpoint: bool,
}

/// The read-mapping workload: seed index over a random reference, reads
/// mapped through the seed filter and the bit-serial DP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapSpec {
    pub reference_len: usize,
    pub read_len: usize,
    pub coverage: f64,
    pub error_rate: f64,
    /// Sub-arrays the seed index spreads over.
    pub subarrays: usize,
    pub bucket_rows: usize,
    pub workers: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spec {
    Asm(AsmSpec),
    Map(MapSpec),
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["asm-batch-50k", "asm-stream-20k-err", "map-10k"];

/// The named workload at full size.
pub fn workload(name: &str) -> Option<Spec> {
    let asm = AsmSpec {
        genome_len: 50_000,
        read_len: 101,
        coverage: 25.0,
        error_rate: 0.0,
        k: 17,
        hash_subarrays: 64,
        workers: 2,
        chunk_reads: None,
        fastq: false,
        checkpoint: false,
    };
    match name {
        "asm-batch-50k" => Some(Spec::Asm(asm)),
        "asm-stream-20k-err" => Some(Spec::Asm(AsmSpec {
            genome_len: 20_000,
            error_rate: 0.005,
            chunk_reads: Some(256),
            fastq: true,
            checkpoint: true,
            ..asm
        })),
        "map-10k" => Some(Spec::Map(MapSpec {
            reference_len: 10_000,
            read_len: 32,
            coverage: 16.0,
            error_rate: 0.02,
            subarrays: 64,
            bucket_rows: 8,
            workers: 2,
        })),
        _ => None,
    }
}

impl Spec {
    /// The same workload over a genome (or reference) of `len` bases —
    /// the reduced sizes the benchmark's own tests run at.
    pub fn with_genome_len(self, len: usize) -> Spec {
        match self {
            Spec::Asm(s) => Spec::Asm(AsmSpec { genome_len: len, ..s }),
            Spec::Map(s) => Spec::Map(MapSpec { reference_len: len, ..s }),
        }
    }

    /// The same workload with the sub-array partition resized.
    pub fn with_subarrays(self, n: usize) -> Spec {
        match self {
            Spec::Asm(s) => Spec::Asm(AsmSpec { hash_subarrays: n, ..s }),
            Spec::Map(s) => Spec::Map(MapSpec { subarrays: n, ..s }),
        }
    }
}
