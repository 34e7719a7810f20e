#include "storage/encoder.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace dvp::storage
{

Slot
Document::slotOf(AttrId attr) const
{
    auto it = std::lower_bound(
        attrs.begin(), attrs.end(), attr,
        [](const auto &pair, AttrId a) { return pair.first < a; });
    if (it != attrs.end() && it->first == attr)
        return it->second;
    return kNullSlot;
}

Document
Encoder::encode(const std::vector<json::FlatAttr> &flat)
{
    Document doc;
    doc.oid = next_oid++;
    doc.attrs.reserve(flat.size());

    std::vector<AttrId> present;
    std::vector<AttrType> types;
    present.reserve(flat.size());
    types.reserve(flat.size());

    for (const auto &fa : flat) {
        AttrId id = catalog->ensure(fa.path);
        Slot slot;
        AttrType type;
        switch (fa.value.type()) {
          case json::Type::Null:
            continue; // JSON null carries no queryable value
          case json::Type::Bool:
            slot = encodeBool(fa.value.asBool());
            type = AttrType::Boolean;
            break;
          case json::Type::Int:
            slot = encodeInt(fa.value.asInt());
            type = AttrType::Integer;
            break;
          case json::Type::Double:
            warn("rounding double attribute '%s' to integer",
                 fa.path.c_str());
            slot = encodeInt(std::llround(fa.value.asDouble()));
            type = AttrType::Integer;
            break;
          case json::Type::String:
            slot = encodeString(dict->intern(fa.value.asString()));
            type = AttrType::String;
            break;
          default:
            panic("flattened attribute holds a container");
        }
        doc.attrs.emplace_back(id, slot);
        present.push_back(id);
        types.push_back(type);
    }

    std::sort(doc.attrs.begin(), doc.attrs.end());
    catalog->noteDocument(present, types);
    return doc;
}

} // namespace dvp::storage
