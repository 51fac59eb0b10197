//! Seeded input generation. The genome and reads come from ChaCha8, as in
//! `pim-asm simulate` and `pim-asm map`, and are written as FASTA or FASTQ
//! so the program under test sees only files.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use pim_genome::fasta::{read_fasta, write_fasta, FastaRecord};
use pim_genome::fastq::{read_fastq, write_fastq, FastqRecord};
use pim_genome::{DnaSequence, Read, ReadSimulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Phred quality written for every FASTQ base (the simulator models
/// substitutions, not qualities).
const FASTQ_QUALITY: u8 = 40;

/// The files one workload reads.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub reads: PathBuf,
    /// The mapping reference; `None` for assembly workloads.
    pub reference: Option<PathBuf>,
}

/// Simulates `genome_len` random bases and reads over them from `seed`,
/// writes the reads (and, when `write_reference`, the genome) into `dir`.
///
/// # Errors
///
/// I/O failures, as text.
pub fn generate(
    dir: &Path,
    seed: u64,
    genome_len: usize,
    simulator: ReadSimulator,
    fastq: bool,
    write_reference: bool,
) -> Result<Inputs, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let genome = DnaSequence::random(&mut rng, genome_len);
    let reads = simulator.simulate(&genome, &mut rng);
    let reads_path = dir.join(if fastq { "reads.fastq" } else { "reads.fasta" });
    let mut out = BufWriter::new(File::create(&reads_path).map_err(io(&reads_path))?);
    if fastq {
        let records: Vec<FastqRecord> = reads
            .iter()
            .map(|r| FastqRecord {
                name: format!("read_{}", r.id),
                quals: vec![FASTQ_QUALITY; r.seq.len()],
                seq: r.seq.clone(),
            })
            .collect();
        write_fastq(&mut out, &records).map_err(|e| e.to_string())?;
    } else {
        let records: Vec<FastaRecord> = reads
            .iter()
            .map(|r| FastaRecord { name: format!("read_{}", r.id), seq: r.seq.clone() })
            .collect();
        write_fasta(&mut out, &records).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(io(&reads_path))?;
    let reference = if write_reference {
        let path = dir.join("reference.fasta");
        let record = FastaRecord { name: "reference".into(), seq: genome };
        let mut out = BufWriter::new(File::create(&path).map_err(io(&path))?);
        write_fasta(&mut out, &[record]).map_err(|e| e.to_string())?;
        out.flush().map_err(io(&path))?;
        Some(path)
    } else {
        None
    };
    Ok(Inputs { reads: reads_path, reference })
}

/// Loads a whole FASTA or FASTQ file (by extension) as reads numbered in
/// file order.
///
/// # Errors
///
/// I/O and parse failures, as text.
pub fn load_reads(path: &Path) -> Result<Vec<Read>, String> {
    let file = BufReader::new(File::open(path).map_err(io(path))?);
    let seqs: Vec<DnaSequence> = if is_fastq(path) {
        read_fastq(file).map_err(|e| e.to_string())?.into_iter().map(|r| r.seq).collect()
    } else {
        read_fasta(file).map_err(|e| e.to_string())?.into_iter().map(|r| r.seq).collect()
    };
    Ok(seqs.into_iter().enumerate().map(|(id, seq)| Read { id, seq, origin: 0 }).collect())
}

/// Whether `path` names a FASTQ file.
pub fn is_fastq(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "fastq")
}

/// Maps an I/O error on `path` to text.
pub fn io(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}
