#include "ipxact/xml.hpp"

namespace axihc {

void XmlNode::set_attribute(const std::string& key, std::string value) {
  for (auto& [k, v] : attributes_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attributes_.emplace_back(key, std::move(value));
}

XmlNode& XmlNode::add_child(std::string tag) {
  children_.push_back(std::make_unique<XmlNode>(std::move(tag)));
  return *children_.back();
}

XmlNode& XmlNode::add_text_child(std::string tag, std::string text) {
  XmlNode& child = add_child(std::move(tag));
  child.set_text(std::move(text));
  return child;
}

std::string xml_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void XmlNode::write(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  out += pad + "<" + tag_;
  for (const auto& [k, v] : attributes_) {
    out += " " + k + "=\"" + xml_escape(v) + "\"";
  }
  if (children_.empty() && text_.empty()) {
    out += "/>\n";
    return;
  }
  out += ">";
  if (children_.empty()) {
    out += xml_escape(text_) + "</" + tag_ + ">\n";
    return;
  }
  out += "\n";
  for (const auto& c : children_) c->write(out, indent + 1);
  out += pad + "</" + tag_ + ">\n";
}

std::string XmlNode::to_string() const {
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  write(out, 0);
  return out;
}

}  // namespace axihc
