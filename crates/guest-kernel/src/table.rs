//! The kernel's shared object tables as plain data.
//!
//! A func-image restore reads every object out of one mapped arena (paper
//! §3.2), so a table keeps *where* an object's bytes lie in that arena, not
//! a copy of them: a [`Table`] is one [`SharedBytes`] handle plus a `Vec`
//! of `Copy` rows whose byte fields are [`Span`]s of it, and [`Lists`] keeps
//! variable-length lists back to back in one `Vec`. Building either is a
//! `Vec` and at most one reference count, dropping it is one free, and
//! cloning it — what the first write behind an `sfork` relative does —
//! copies rows, never bytes.

use memsim::SharedBytes;

/// A byte range of a [`Table`]'s buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    start: usize,
    end: usize,
}

impl Span {
    fn at(start: usize, len: usize) -> Span {
        Span {
            start,
            end: start.saturating_add(len),
        }
    }
}

/// `Copy` rows over one byte buffer.
#[derive(Debug, Clone)]
pub(crate) struct Table<R> {
    bytes: SharedBytes,
    rows: Vec<R>,
}

impl<R> Default for Table<R> {
    fn default() -> Table<R> {
        Table {
            bytes: SharedBytes::default(),
            rows: Vec::new(),
        }
    }
}

impl<R> Table<R> {
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn rows(&self) -> &[R] {
        &self.rows
    }

    pub(crate) fn push(&mut self, row: R) {
        self.rows.push(row);
    }

    /// The bytes `span` covers (empty for a span of another table).
    pub(crate) fn bytes(&self, span: Span) -> &[u8] {
        self.bytes.get(span.start..span.end).unwrap_or_default()
    }

    /// The bytes `span` covers as a view of this table's buffer: one
    /// reference count, no copy.
    pub(crate) fn shared(&self, span: Span) -> SharedBytes {
        match self.bytes.get(span.start..span.end) {
            Some(_) => self.bytes.slice(span.start..span.end),
            None => SharedBytes::default(),
        }
    }

    /// Where the `len` bytes at `at` of `buf` lie in this table. In place
    /// when `buf` is the table's buffer, and a table without bytes yet takes
    /// `buf` as its buffer (one reference count) — so every object of a
    /// func-image restore lands in place. Any other source is appended.
    pub(crate) fn place(&mut self, buf: &SharedBytes, at: usize, len: usize) -> Span {
        if self.bytes.same_view(buf) {
            return Span::at(at, len);
        }
        if self.bytes.is_empty() {
            self.bytes = buf.clone();
            return Span::at(at, len);
        }
        let end = at.saturating_add(len);
        self.append(buf.get(at..end).unwrap_or_default())
    }

    /// Copies `bytes` to the end of the table's buffer, which is copied
    /// first if another handle shares it.
    pub(crate) fn append(&mut self, bytes: &[u8]) -> Span {
        Span::at(self.bytes.append(bytes), bytes.len())
    }
}

impl Table<Span> {
    /// Appends one row that is nothing but its bytes.
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        let span = self.append(bytes);
        self.rows.push(span);
    }
}

/// Variable-length lists of `Copy` values, back to back: list `i` is
/// `values[ends[i - 1]..ends[i]]`.
#[derive(Debug, Clone)]
pub(crate) struct Lists<T> {
    values: Vec<T>,
    ends: Vec<usize>,
}

impl<T> Default for Lists<T> {
    fn default() -> Lists<T> {
        Lists {
            values: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T: Copy> Lists<T> {
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn push(&mut self, list: impl IntoIterator<Item = T>) {
        self.values.extend(list);
        self.ends.push(self.values.len());
    }

    /// Pushes a list whose values can fail to decode; on the first error
    /// nothing of it is kept.
    pub(crate) fn try_push<E>(
        &mut self,
        list: impl IntoIterator<Item = Result<T, E>>,
    ) -> Result<(), E> {
        let start = self.values.len();
        for value in list {
            match value {
                Ok(value) => self.values.push(value),
                Err(e) => {
                    self.values.truncate(start);
                    return Err(e);
                }
            }
        }
        self.ends.push(self.values.len());
        Ok(())
    }

    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        (0..self.ends.len()).map(|i| {
            let start = match i.checked_sub(1) {
                Some(prev) => self.ends.get(prev).copied().unwrap_or(0),
                None => 0,
            };
            let end = self.ends.get(i).copied().unwrap_or(start);
            self.values.get(start..end).unwrap_or_default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_table_takes_the_first_buffer_and_keeps_ranges_of_it() {
        let arena = SharedBytes::from(b"..alpha..beta..".to_vec());
        let mut table: Table<Span> = Table::default();
        for (at, len) in [(2, 5), (9, 4)] {
            let span = table.place(&arena, at, len);
            table.push(span);
        }
        let rows: Vec<&[u8]> = table.rows().iter().map(|s| table.bytes(*s)).collect();
        assert_eq!(rows, [&b"alpha"[..], b"beta"]);
        assert_eq!(table.bytes(table.rows()[0]).as_ptr(), arena[2..].as_ptr());

        // A foreign buffer is appended, copy-on-write: the arena keeps its
        // bytes and the earlier rows still read theirs.
        let other = SharedBytes::from(b"gamma".to_vec());
        let span = table.place(&other, 0, 5);
        table.push(span);
        assert_eq!(table.bytes(span), b"gamma");
        assert_eq!(table.bytes(table.rows()[1]), b"beta");
        assert_eq!(&arena[..], b"..alpha..beta..");
        assert_eq!(&table.shared(span)[..], b"gamma");
    }

    #[test]
    fn lists_keep_their_boundaries() {
        let mut lists: Lists<u32> = Lists::default();
        lists.push([1, 2]);
        lists.push([]);
        let failed = lists.try_push([Ok(9), Err("bad")]);
        assert_eq!(failed, Err("bad"));
        lists.try_push([Ok::<_, ()>(3)]).unwrap();
        assert_eq!(lists.len(), 3);
        assert_eq!(lists.iter().collect::<Vec<_>>(), [&[1, 2][..], &[], &[3]]);
    }
}
