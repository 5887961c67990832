//! Graph IO: plain-text edge lists (SNAP style) and a compact binary CSR
//! format for caching generated datasets between benchmark runs.

use crate::builder::{BuildOptions, CsrBuilder};
use crate::csr::{Csr, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parse a SNAP-style edge list: one `u v` pair per line, `#` comments
/// allowed. Vertices are remapped densely in order of first appearance when
/// `remap` is set; otherwise ids are used as-is (max id defines |V|).
pub fn read_edge_list<R: BufRead>(reader: R, opts: BuildOptions) -> io::Result<Csr> {
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut max_id = 0u64;
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed edge line: {line:?}"),
                ))
            }
        };
        let u: u64 = u.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad vertex id {u:?}: {e}"),
            )
        })?;
        let v: u64 = v.parse().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad vertex id {v:?}: {e}"),
            )
        })?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    if n > u32::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "vertex id exceeds u32 range",
        ));
    }
    let mut b = CsrBuilder::new(n.max(1));
    b.reserve(edges.len());
    for (u, v) in edges {
        b.add_edge(u as VertexId, v as VertexId);
    }
    Ok(b.build(opts))
}

/// Read an edge-list file from disk.
pub fn read_edge_list_file(path: &Path, opts: BuildOptions) -> io::Result<Csr> {
    read_edge_list(BufReader::new(File::open(path)?), opts)
}

/// Write a graph as a directed edge list (every stored arc).
pub fn write_edge_list<W: Write>(g: &Csr, mut w: W) -> io::Result<()> {
    for (u, nbrs) in g.iter_rows() {
        for &v in nbrs {
            writeln!(w, "{u} {v}")?;
        }
    }
    Ok(())
}

/// Parse a Matrix Market coordinate file (`%%MatrixMarket matrix
/// coordinate ...`) as a graph — the distribution format of many of the
/// paper's datasets (SuiteSparse mirrors of SNAP). Ids are 1-based in the
/// format and converted to 0-based; any value entries are ignored; the
/// `symmetric` qualifier adds reverse edges regardless of `opts`.
pub fn read_matrix_market<R: BufRead>(reader: R, opts: BuildOptions) -> io::Result<Csr> {
    let mut lines = reader.lines();
    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                if line.starts_with("%%MatrixMarket") {
                    break line;
                }
                if !line.trim().is_empty() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "missing %%MatrixMarket header",
                    ));
                }
            }
            None => return Err(io::Error::new(io::ErrorKind::InvalidData, "empty file")),
        }
    };
    let header_lc = header.to_lowercase();
    if !header_lc.contains("coordinate") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "only coordinate (sparse) Matrix Market files are supported",
        ));
    }
    let symmetric = header_lc.contains("symmetric");

    // Size line: first non-comment line.
    let mut size_line = String::new();
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = t.to_string();
        break;
    }
    let mut it = size_line.split_whitespace();
    let parse = |s: Option<&str>| -> io::Result<usize> {
        s.and_then(|x| x.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed size line"))
    };
    let rows = parse(it.next())?;
    let cols = parse(it.next())?;
    let nnz = parse(it.next())?;
    let n = rows.max(cols);
    if n > u32::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "dimension exceeds u32 range",
        ));
    }

    let mut b = CsrBuilder::new(n.max(1));
    b.reserve(if symmetric { 2 * nnz } else { nnz });
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: u64 = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad entry row"))?;
        let v: u64 = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad entry col"))?;
        if u == 0 || v == 0 || u as usize > n || v as usize > n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("entry ({u}, {v}) outside 1..={n}"),
            ));
        }
        let (u, v) = ((u - 1) as VertexId, (v - 1) as VertexId);
        b.add_edge(u, v);
        if symmetric && u != v {
            b.add_edge(v, u);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected {nnz} entries, found {seen}"),
        ));
    }
    Ok(b.build(opts))
}

const BIN_MAGIC: u32 = 0x5842_4653; // "XBFS"
const BIN_VERSION: u32 = 1;

/// Serialize a CSR in the compact binary cache format: a 24-byte
/// little-endian header (magic, version, vertex count, edge count), then
/// `n + 1` `u64` offsets and `m` `u32` neighbor ids.
pub fn write_binary<W: Write>(g: &Csr, mut w: W) -> io::Result<()> {
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(&BIN_MAGIC.to_le_bytes());
    header.extend_from_slice(&BIN_VERSION.to_le_bytes());
    header.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    header.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    w.write_all(&header)?;
    let buf: Vec<u8> = g.offsets().iter().flat_map(|o| o.to_le_bytes()).collect();
    w.write_all(&buf)?;
    let buf: Vec<u8> = g.adjacency().iter().flat_map(|v| v.to_le_bytes()).collect();
    w.write_all(&buf)?;
    Ok(())
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Read exactly `len` bytes of one section. Memory grows only with the
/// bytes that actually arrive, so a header that claims a huge section
/// costs nothing until the data is there.
fn read_section<R: Read>(r: &mut R, len: u64, what: &str) -> io::Result<Vec<u8>> {
    let mut raw = Vec::new();
    r.take(len).read_to_end(&mut raw)?;
    if raw.len() as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated {what}: {} of {len} bytes", raw.len()),
        ));
    }
    Ok(raw)
}

/// Deserialize a CSR from the binary cache format, validating all
/// structural invariants. Header counts that overflow, or a vertex count
/// beyond the [`VertexId`] range, are [`io::ErrorKind::InvalidData`]; a
/// body shorter than the header claims is [`io::ErrorKind::UnexpectedEof`].
pub fn read_binary<R: Read>(mut r: R) -> io::Result<Csr> {
    let mut header = [0u8; 24];
    r.read_exact(&mut header)?;
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4-byte field"));
    let dword =
        |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8-byte field"));
    if word(0) != BIN_MAGIC {
        return Err(invalid("bad magic"));
    }
    if word(4) != BIN_VERSION {
        return Err(invalid("bad version"));
    }
    let (n, m) = (dword(8), dword(16));
    if n > u64::from(VertexId::MAX) {
        return Err(invalid("vertex count exceeds the VertexId range"));
    }
    let offsets_len = (n + 1) * 8;
    let adjacency_len = m
        .checked_mul(4)
        .ok_or_else(|| invalid("edge count overflows"))?;
    let raw = read_section(&mut r, offsets_len, "offsets")?;
    let offsets: Vec<u64> = raw
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    let raw = read_section(&mut r, adjacency_len, "adjacency")?;
    let adjacency: Vec<VertexId> = raw
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    Csr::from_parts(offsets, adjacency).ok_or_else(|| invalid("corrupt CSR"))
}

/// Write the binary format to a file.
pub fn write_binary_file(g: &Csr, path: &Path) -> io::Result<()> {
    write_binary(g, BufWriter::new(File::create(path)?))
}

/// Read the binary format from a file.
pub fn read_binary_file(path: &Path) -> io::Result<Csr> {
    read_binary(BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use std::io::Cursor;

    #[test]
    fn edge_list_round_trip() {
        let g = erdos_renyi(64, 200, 1);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        // Already symmetric & deduped, so raw rebuild matches.
        let g2 = read_edge_list(Cursor::new(buf), BuildOptions::raw()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_parses_comments_and_blanks() {
        let text = "# snap header\n\n0 1\n1 2\n% matrix market comment\n2 0\n";
        let g = read_edge_list(Cursor::new(text), BuildOptions::default()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let text = "0 x\n";
        assert!(read_edge_list(Cursor::new(text), BuildOptions::default()).is_err());
        let text = "0\n";
        assert!(read_edge_list(Cursor::new(text), BuildOptions::default()).is_err());
    }

    #[test]
    fn binary_round_trip() {
        let g = erdos_renyi(100, 400, 2);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(Cursor::new(buf)).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = erdos_renyi(50, 100, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf[0] ^= 0xFF; // break magic
        assert!(read_binary(Cursor::new(&buf)).is_err());

        let mut buf2 = Vec::new();
        write_binary(&g, &mut buf2).unwrap();
        let last = buf2.len() - 1;
        buf2.truncate(last); // truncate payload
        assert!(read_binary(Cursor::new(&buf2)).is_err());
    }

    fn header(n: u64, m: u64) -> Vec<u8> {
        let mut h = Vec::new();
        h.extend_from_slice(&BIN_MAGIC.to_le_bytes());
        h.extend_from_slice(&BIN_VERSION.to_le_bytes());
        h.extend_from_slice(&n.to_le_bytes());
        h.extend_from_slice(&m.to_le_bytes());
        h
    }

    #[test]
    fn binary_truncated_body_is_unexpected_eof() {
        let g = erdos_renyi(50, 100, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        for cut in [24, 30, 24 + 8 * 51, buf.len() - 1] {
            let err = read_binary(Cursor::new(&buf[..cut])).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn binary_rejects_huge_vertex_count_without_allocating() {
        for n in [u64::MAX, u64::from(VertexId::MAX) + 1] {
            let err = read_binary(Cursor::new(header(n, 0))).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "n = {n}");
        }
        // In range but absent: the reader fails on the missing bytes
        // instead of reserving 8·(n+1) of them up front.
        let err = read_binary(Cursor::new(header(u64::from(VertexId::MAX), 0))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn binary_rejects_overflowing_edge_count() {
        let mut buf = header(1, u64::MAX / 2);
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_binary(Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn matrix_market_general_and_symmetric() {
        let general = "%%MatrixMarket matrix coordinate real general\n\
                       % comment\n\
                       3 3 3\n\
                       1 2 1.5\n\
                       2 3 2.0\n\
                       3 1 0.5\n";
        let g = read_matrix_market(Cursor::new(general), BuildOptions::raw()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1]);

        let symmetric = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                         3 3 2\n\
                         2 1\n\
                         3 2\n";
        let g = read_matrix_market(Cursor::new(symmetric), BuildOptions::raw()).unwrap();
        assert_eq!(g.num_edges(), 4); // both directions materialized
        assert!(g.is_symmetric());
    }

    #[test]
    fn matrix_market_rejects_malformed() {
        let missing_header = "3 3 1\n1 2\n";
        assert!(read_matrix_market(Cursor::new(missing_header), BuildOptions::raw()).is_err());
        let wrong_count = "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 2\n";
        assert!(read_matrix_market(Cursor::new(wrong_count), BuildOptions::raw()).is_err());
        let oob = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 9\n";
        assert!(read_matrix_market(Cursor::new(oob), BuildOptions::raw()).is_err());
        let dense = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        assert!(read_matrix_market(Cursor::new(dense), BuildOptions::raw()).is_err());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Csr::from_parts(vec![0], vec![]).unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(Cursor::new(buf)).unwrap(), g);
    }
}
