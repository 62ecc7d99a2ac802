//! The kernel's shared object tables as plain data.
//!
//! A func-image restore reads every object out of one mapped arena (paper
//! §3.2), so a table keeps *where* an object's bytes lie in that arena, not
//! a copy of them: a [`Table`] is one [`SharedBytes`] handle plus a `Vec`
//! of `Copy` rows whose byte fields are [`Span`]s of it, and [`Lists`] keeps
//! variable-length lists back to back in one `Vec`. Building either is a
//! `Vec` and at most one reference count, dropping it is one free, and
//! cloning it — what the first write behind an `sfork` relative does —
//! copies rows, never bytes. The few strings other objects keep are
//! [`Text`]s: views of the same arena, one each.

use imagefmt::flat::{Payloads, RecordRun};
use imagefmt::ObjView;
use memsim::SharedBytes;

use crate::KernelError;

/// A byte range of a [`Table`]'s buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    start: usize,
    end: usize,
}

impl Span {
    pub(crate) fn at(start: usize, len: usize) -> Span {
        Span {
            start,
            end: start.saturating_add(len),
        }
    }

    fn len(self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// The same range, `by` bytes further on.
    fn shifted(self, by: usize) -> Span {
        Span::at(self.start.saturating_add(by), self.len())
    }

    /// The bytes of `buf` this covers (empty if they are not a range of it).
    pub(crate) fn of(self, buf: &[u8]) -> &[u8] {
        buf.get(self.start..self.end).unwrap_or_default()
    }

    /// The bytes of `buf` this covers, as a view of it (empty if they are
    /// not a range of it).
    pub(crate) fn view(self, buf: &SharedBytes) -> SharedBytes {
        match buf.get(self.start..self.end) {
            Some(_) => buf.slice(self.start..self.end),
            None => SharedBytes::default(),
        }
    }
}

/// A string a kernel object keeps: the task name, namespace kind, mount
/// fields, descriptor path and socket address. A restored one is a span of
/// the buffer its record is viewed out of — for a func-image, the mapped
/// arena — held as a view: one reference count, no copy, no allocation, and
/// no shared buffer that a later write would have to copy first (these
/// tables grow after a restore: every request opens descriptors). One made
/// at run time owns its bytes. Either way the bytes were checked to be UTF-8
/// when it was made.
#[derive(Clone)]
pub(crate) enum Text {
    /// A range of a restored record's buffer.
    Span(SharedBytes),
    /// Bytes of its own.
    Own(Box<str>),
}

impl Text {
    /// The `len` bytes at `at` of `buf`, in place (empty if they are not a
    /// range of it). The caller has checked they are UTF-8.
    pub(crate) fn span(buf: &SharedBytes, at: usize, len: usize) -> Text {
        let end = at.saturating_add(len);
        match buf.get(at..end) {
            Some(_) => Text::Span(buf.slice(at..end)),
            None => Text::default(),
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        match self {
            Text::Span(bytes) => std::str::from_utf8(bytes).unwrap_or_default(),
            Text::Own(text) => text,
        }
    }
}

impl Default for Text {
    fn default() -> Text {
        Text::Own(Box::default())
    }
}

impl From<&str> for Text {
    fn from(text: &str) -> Text {
        Text::Own(text.into())
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl std::fmt::Debug for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
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

    pub(crate) fn push(&mut self, row: R) {
        self.rows.push(row);
    }

    pub(crate) fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    pub(crate) fn get(&self, row: usize) -> Option<&R> {
        self.rows.get(row)
    }

    pub(crate) fn get_mut(&mut self, row: usize) -> Option<&mut R> {
        self.rows.get_mut(row)
    }

    /// The buffer every row's spans are ranges of.
    pub(crate) fn bytes(&self) -> &SharedBytes {
        &self.bytes
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

/// A row a [`RunTable`] can read out of a record's payload: `Copy` data
/// with one byte field, a [`Span`].
pub(crate) trait RunRow: Copy + Default {
    /// The row a record's payload `p` holds, its byte field a span of `p`.
    ///
    /// # Errors
    ///
    /// [`KernelError::CorruptGraph`] naming the first malformed field.
    fn read(p: &[u8]) -> Result<Self, KernelError>;

    /// This row with its byte field moved by `place`.
    fn placed(self, place: impl FnOnce(Span) -> Span) -> Self;
}

/// A runtime object's row is its bytes.
impl RunRow for Span {
    #[inline]
    fn read(p: &[u8]) -> Result<Span, KernelError> {
        Ok(Span::at(0, p.len()))
    }

    fn placed(self, place: impl FnOnce(Span) -> Span) -> Span {
        place(self)
    }
}

/// A [`Table`] that a kernel restored from a func-image keeps as the run of
/// records its rows are — runtime objects or dentries, which lie there back
/// to back — and reads row by row in place: no row per object until the
/// first write, which makes rows of the run. Anything else is rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunTable<R> {
    rows: Table<R>,
    /// The records every row is, while there is no row of `rows`.
    run: Option<RecordRun>,
}

impl<R: RunRow> RunTable<R> {
    pub(crate) fn len(&self) -> usize {
        self.rows.len() + self.run.as_ref().map_or(0, RecordRun::len)
    }

    /// Adds `run`'s records as the next rows: the run itself when the table
    /// is empty, an O(1) step. The caller has checked every record `read`s.
    pub(crate) fn push_run(&mut self, run: RecordRun) {
        if self.run.is_none() && self.rows.len() == 0 {
            self.run = Some(run);
        } else {
            self.rows_mut().extend_run(&run);
        }
    }

    /// Adds the row `rec`'s payload holds, its bytes placed as
    /// [`Table::place`] does.
    #[inline]
    pub(crate) fn push_record(&mut self, rec: &ObjView<'_>) -> Result<(), KernelError> {
        let row = R::read(rec.payload())?;
        let (buf, at) = rec.payload_source();
        let rows = self.rows_mut();
        let row = row.placed(|span| rows.place(buf, at.saturating_add(span.start), span.len()));
        rows.push(row);
        Ok(())
    }

    /// The rows for writing; a run becomes rows of its arena first.
    pub(crate) fn rows_mut(&mut self) -> &mut Table<R> {
        if let Some(run) = self.run.take() {
            self.rows.extend_run(&run);
        }
        &mut self.rows
    }

    /// True while the table is a run of records, with no row of its own.
    #[cfg(test)]
    pub(crate) fn is_run(&self) -> bool {
        self.run.is_some()
    }

    /// The buffer every row's span is a range of, and the rows in order.
    pub(crate) fn rows(&self) -> (&SharedBytes, RunRows<'_, R>) {
        match &self.run {
            Some(run) => (run.arena(), RunRows::Run(run.arena(), run.payloads())),
            None => (&self.rows.bytes, RunRows::Rows(self.rows.rows.iter())),
        }
    }
}

impl<R: RunRow> Table<R> {
    /// Appends a row per record of `run`, read out of its arena.
    fn extend_run(&mut self, run: &RecordRun) {
        let arena = run.arena();
        for row in RunRows::<R>::Run(arena, run.payloads()) {
            let row = row.placed(|span| self.place(arena, span.start, span.len()));
            self.rows.push(row);
        }
    }
}

/// The rows of a [`RunTable`], each read out of its record if the table is
/// a run.
pub(crate) enum RunRows<'a, R> {
    Rows(std::slice::Iter<'a, R>),
    Run(&'a [u8], Payloads<'a>),
}

impl<R: RunRow> Iterator for RunRows<'_, R> {
    type Item = R;

    #[inline]
    fn next(&mut self) -> Option<R> {
        match self {
            RunRows::Rows(rows) => rows.next().copied(),
            RunRows::Run(arena, payloads) => {
                // A run's records were checked when it was taken: a default
                // row stands in for one that does not read.
                let (start, end) = payloads.next()?;
                let row = arena.get(start..end).and_then(|p| R::read(p).ok());
                Some(row.unwrap_or_default().placed(|span| span.shifted(start)))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RunRows::Rows(rows) => rows.size_hint(),
            RunRows::Run(_, payloads) => payloads.size_hint(),
        }
    }
}

impl<R: RunRow> ExactSizeIterator for RunRows<'_, R> {}

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
        let rows: Vec<&[u8]> = table.rows.iter().map(|s| s.of(&table.bytes)).collect();
        assert_eq!(rows, [&b"alpha"[..], b"beta"]);
        assert_eq!(table.rows[0].of(&table.bytes).as_ptr(), arena[2..].as_ptr());

        // A foreign buffer is appended, copy-on-write: the arena keeps its
        // bytes and the earlier rows still read theirs.
        let other = SharedBytes::from(b"gamma".to_vec());
        let span = table.place(&other, 0, 5);
        table.push(span);
        assert_eq!(span.of(&table.bytes), b"gamma");
        assert_eq!(table.rows[1].of(&table.bytes), b"beta");
        assert_eq!(&arena[..], b"..alpha..beta..");
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
