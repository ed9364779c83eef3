/**
 * @file
 * One field list per wire record. A record type X spells its binary
 * layout once, as
 *
 *   template <class Io>
 *   void transfer(Io &io, WireRecord<Io, X> &x);
 *
 * and that list both encodes and decodes it. `Io` is WireWriter
 * (then `x` is `const X`, so a reader op on it fails to compile) or
 * WireReader. `io(a, b, ...)` moves fields in order, taking the wire
 * width from the C++ type (u8/u32/u64/i32/i64, f64, strings, i32 and
 * f64 vectors, bools as one 0/1 byte) and recursing into the
 * `transfer` of nested records. The ops below cover the rest of the
 * layout, and their reader side runs the checks that belong to the
 * field. `io.check` adds a record-level check that runs only when
 * decoding, and only if everything before it read cleanly. A reader
 * latches its first failure (see BinaryReader), so a list runs to
 * its end and reports that failure once.
 */

#ifndef DCMBQC_SERIALIZE_WIRE_HH
#define DCMBQC_SERIALIZE_WIRE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "serialize/binary.hh"

namespace dcmbqc
{

/** `X` as a field list sees it: const when encoding. */
template <class Io, class X>
using WireRecord = std::conditional_t<Io::reading, X, const X>;

/** Encoding side of a field list. */
class WireWriter
{
  public:
    static constexpr bool reading = false;

    explicit WireWriter(BinaryWriter &writer) : writer_(writer) {}

    BinaryWriter &stream() { return writer_; }
    bool ok() const { return true; }

    template <class... Fields>
    void
    operator()(const Fields &...fields)
    {
        (field(fields), ...);
    }

    /** An enum as a u8 tag; the reader rejects tags past `last`. */
    template <class E>
    void
    tag(const E &value, E, const char *)
    {
        writer_.writeU8(static_cast<std::uint8_t>(value));
    }

    /** Bools packed into one flag byte, bit i for the i-th flag. */
    template <class... Flags>
    void
    bits(const char *, const Flags &...flags)
    {
        std::uint8_t byte = 0;
        int bit = 0;
        ((byte |= (flags ? 1 : 0) << bit++), ...);
        writer_.writeU8(byte);
    }

    /** A u32 count, then each element. */
    template <class T>
    void
    list(const std::vector<T> &items, std::size_t)
    {
        writer_.writeU32(static_cast<std::uint32_t>(items.size()));
        for (const T &item : items)
            field(item);
    }

    /** A u32 count, then each (key, value) in key order. */
    template <class Map, class Check>
    void
    map(const Map &entries, std::size_t, const char *, Check)
    {
        writer_.writeU32(static_cast<std::uint32_t>(entries.size()));
        for (const auto &[key, value] : entries)
            (*this)(key, value);
    }

    /** The value if `present`, which the record stores elsewhere. */
    template <class T>
    void
    optional(bool present, const std::optional<T> &value)
    {
        if (present)
            field(*value);
    }

    /** A presence bool, then the value if present. */
    template <class T>
    void
    optional(const std::optional<T> &value)
    {
        field(value.has_value());
        optional(value.has_value(), value);
    }

    /** A u64 length, then raw bytes. */
    void
    blob(const std::vector<std::uint8_t> &bytes)
    {
        writer_.writeU64(bytes.size());
        writer_.writeBytes(bytes.data(), bytes.size());
    }

    /** Record-level checks only run when decoding. */
    template <class Check>
    void
    check(Check)
    {
    }

  private:
    void field(std::uint8_t value) { writer_.writeU8(value); }
    void field(std::uint32_t value) { writer_.writeU32(value); }
    void field(std::uint64_t value) { writer_.writeU64(value); }
    void field(std::int32_t value) { writer_.writeI32(value); }
    void field(std::int64_t value) { writer_.writeI64(value); }
    void field(double value) { writer_.writeF64(value); }
    void field(bool value) { writer_.writeU8(value ? 1 : 0); }
    void field(const std::string &value) { writer_.writeString(value); }
    void field(const std::vector<std::int32_t> &values)
    {
        writer_.writeI32Vector(values);
    }
    void field(const std::vector<double> &values)
    {
        writer_.writeF64Vector(values);
    }
    template <class T> void field(const T &record)
    {
        transfer(*this, record);
    }

    BinaryWriter &writer_;
};

/** Decoding side of a field list. */
class WireReader
{
  public:
    static constexpr bool reading = true;

    explicit WireReader(BinaryReader &reader) : reader_(reader) {}

    BinaryReader &stream() { return reader_; }
    bool ok() const { return reader_.ok(); }
    void fail(const std::string &message) { reader_.fail(message); }

    template <class... Fields>
    void
    operator()(Fields &...fields)
    {
        (field(fields), ...);
    }

    template <class E>
    void
    tag(E &value, E last, const char *what)
    {
        const std::uint8_t raw = reader_.readU8();
        if (raw > static_cast<std::uint8_t>(last))
            fail(std::string("invalid ") + what + " tag " +
                 std::to_string(raw));
        else if (ok())
            value = static_cast<E>(raw);
    }

    template <class... Flags>
    void
    bits(const char *what, Flags &...flags)
    {
        const std::uint8_t byte = reader_.readU8();
        if ((byte >> sizeof...(flags)) != 0)
            fail(std::string("invalid ") + what + " flags byte " +
                 std::to_string(byte));
        int bit = 0;
        ((flags = ((byte >> bit++) & 1) != 0), ...);
    }

    /**
     * `min_bytes` is the smallest encoding of one element, so a
     * count the remaining bytes cannot hold fails before anything is
     * allocated.
     */
    template <class T>
    void
    list(std::vector<T> &items, std::size_t min_bytes)
    {
        const std::uint32_t count = reader_.readCount(min_bytes);
        for (std::uint32_t i = 0; i < count && ok(); ++i)
            field(items.emplace_back());
    }

    /**
     * `valid(key, value)` returns an error message, or an empty
     * string for a good entry. Duplicate keys are rejected.
     */
    template <class Map, class Check>
    void
    map(Map &entries, std::size_t min_bytes, const char *what,
        Check valid)
    {
        const std::uint32_t count = reader_.readCount(min_bytes);
        for (std::uint32_t i = 0; i < count && ok(); ++i) {
            typename Map::key_type key{};
            typename Map::mapped_type value{};
            (*this)(key, value);
            if (!ok())
                return;
            if (std::string error = valid(key, value); !error.empty())
                fail(error);
            else if (!entries.emplace(std::move(key), value).second)
                fail(std::string("duplicate outcome key in ") + what);
        }
    }

    template <class T>
    void
    optional(bool present, std::optional<T> &value)
    {
        if (present)
            field(value.emplace());
    }

    template <class T>
    void
    optional(std::optional<T> &value)
    {
        bool present = false;
        field(present);
        optional(present, value);
    }

    void
    blob(std::vector<std::uint8_t> &bytes)
    {
        const std::uint64_t size = reader_.readU64();
        if (ok() && size > reader_.remaining())
            fail("byte string of " + std::to_string(size) +
                 " bytes exceeds the remaining payload");
        else
            bytes = reader_.readBytes(static_cast<std::size_t>(size));
    }

    /** Fails with `check()`'s message unless it is empty. */
    template <class Check>
    void
    check(Check check)
    {
        if (!ok())
            return;
        if (std::string error = check(); !error.empty())
            fail(error);
    }

  private:
    void field(std::uint8_t &value) { value = reader_.readU8(); }
    void field(std::uint32_t &value) { value = reader_.readU32(); }
    void field(std::uint64_t &value) { value = reader_.readU64(); }
    void field(std::int32_t &value) { value = reader_.readI32(); }
    void field(std::int64_t &value) { value = reader_.readI64(); }
    void field(double &value) { value = reader_.readF64(); }
    void field(std::string &value) { value = reader_.readString(); }
    void field(std::vector<std::int32_t> &values)
    {
        values = reader_.readI32Vector();
    }
    void field(std::vector<double> &values)
    {
        values = reader_.readF64Vector();
    }
    template <class T> void field(T &record) { transfer(*this, record); }

    /** The one bool rule: 0 or 1, anything else is corruption. */
    void
    field(bool &value)
    {
        const std::uint8_t raw = reader_.readU8();
        if (raw > 1)
            fail("invalid bool byte " + std::to_string(raw));
        value = raw == 1;
    }

    BinaryReader &reader_;
};

/** A field stored as `Wire`: an `int` as u32, a `long long` as i64. */
template <class Wire, class Io, class Field>
void
wireAs(Io &io, Field &field)
{
    auto wire = static_cast<Wire>(field);
    io(wire);
    if constexpr (Io::reading)
        field = static_cast<Field>(wire);
}

/** The Status codec: a u8 code tag, then the message. */
template <class Io>
void
transfer(Io &io, WireRecord<Io, Status> &status)
{
    StatusCode code = status.code();
    std::string message = status.message();
    io.tag(code, StatusCode::Unavailable, "status code");
    io(message);
    if constexpr (Io::reading)
        status = Status::fromCode(code, std::move(message));
}

template <class T>
void
writeRecord(BinaryWriter &writer, const T &value)
{
    WireWriter io(writer);
    io(value);
}

template <class T>
T
readRecord(BinaryReader &reader)
{
    WireReader io(reader);
    T value{};
    io(value);
    return value;
}

template <class T>
std::vector<std::uint8_t>
encodeRecord(const T &value)
{
    BinaryWriter writer;
    writeRecord(writer, value);
    return writer.take();
}

/**
 * Decode a whole payload with `decode(BinaryReader &)`. A reader
 * failure comes back as its Status, and bytes left over after the
 * value are corruption.
 */
template <class Decode>
auto
decodeWhole(const std::uint8_t *data, std::size_t size,
            const std::string &what, Decode decode)
    -> Expected<std::invoke_result_t<Decode, BinaryReader &>>
{
    using T = std::invoke_result_t<Decode, BinaryReader &>;
    BinaryReader reader(data, size);
    T value = decode(reader);
    if (!reader.ok())
        return reader.status();
    if (!reader.atEnd())
        return Status::invalidArgument(
            what + " payload has " + std::to_string(reader.remaining()) +
            " trailing bytes");
    return Expected<T>(std::move(value));
}

template <class T>
Expected<T>
decodeRecord(const std::vector<std::uint8_t> &bytes,
             const std::string &what)
{
    return decodeWhole(bytes.data(), bytes.size(), what, readRecord<T>);
}

} // namespace dcmbqc

#endif // DCMBQC_SERIALIZE_WIRE_HH
